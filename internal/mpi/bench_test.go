package mpi

import (
	"testing"
	"time"
)

// Micro-benchmarks of the runtime primitives. These measure wall-clock
// cost of the simulation itself (how fast the harness can run
// experiments), not modeled time.

func benchRun(b *testing.B, procs int, body func(c *Comm) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := Run(procs, body, WithDeadline(time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsendFanout(b *testing.B) {
	const procs, msgs = 8, 100
	benchRun(b, procs, func(c *Comm) error {
		for k := 0; k < msgs; k++ {
			for d := 0; d < procs; d++ {
				if d != c.Rank() {
					c.Isend(d, 0, []int64{1, 2})
				}
			}
		}
		for k := 0; k < msgs*(procs-1); k++ {
			c.Recv(AnySource, 0)
		}
		return nil
	})
}

func BenchmarkBarrier(b *testing.B) {
	benchRun(b, 8, func(c *Comm) error {
		for k := 0; k < 100; k++ {
			c.Barrier()
		}
		return nil
	})
}

func BenchmarkAllreduce(b *testing.B) {
	benchRun(b, 8, func(c *Comm) error {
		v := []int64{int64(c.Rank())}
		for k := 0; k < 100; k++ {
			c.AllreduceInt64(OpSum, v)
		}
		return nil
	})
}

func BenchmarkNeighborAlltoallv(b *testing.B) {
	const procs = 8
	benchRun(b, procs, func(c *Comm) error {
		topo := c.CreateGraphTopo(ringNeighbors(c.Rank(), procs))
		payload := make([]int64, 64)
		send := [][]int64{payload, payload}
		for k := 0; k < 100; k++ {
			topo.NeighborAlltoallvInt64(send)
		}
		return nil
	})
}

func BenchmarkRMAPutFlush(b *testing.B) {
	benchRun(b, 2, func(c *Comm) error {
		win := c.WinCreate(1 << 12)
		data := make([]int64, 16)
		if c.Rank() == 0 {
			for k := 0; k < 200; k++ {
				win.Put(1, (k*16)%(1<<12-16), data)
				if k%10 == 9 {
					win.FlushAll()
				}
			}
			win.FlushAll()
		}
		c.Barrier()
		win.Free()
		return nil
	})
}
