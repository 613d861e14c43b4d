package mpi

import (
	"fmt"
	"os"
	"strconv"
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

func BenchmarkPingPong(b *testing.B) {
	benchRun(b, 2, func(c *Comm) error {
		const rounds = 200
		for k := 0; k < rounds; k++ {
			if c.Rank() == 0 {
				c.Isend(1, 0, []int64{int64(k)})
				c.Recv(1, 0)
			} else {
				c.Recv(0, 0)
				c.Isend(0, 0, []int64{int64(k)})
			}
		}
		return nil
	})
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

// BenchmarkMailboxBacklog drains a 1024-message backlog with tag-specific
// receives. Under the seed's flat linear-scan mailbox every Recv scanned
// the whole queue and compacted it with an O(n) shift-delete, so the
// drain was O(n^2); the bucketed index resolves each (src, tag) lookup
// from a FIFO ring front in O(1).
func BenchmarkMailboxBacklog(b *testing.B) {
	const n, tags = 1024, 8
	benchRun(b, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for k := 0; k < n; k++ {
				c.Isend(1, k%tags, []int64{int64(k), 0, 0})
			}
			c.Barrier()
		} else {
			c.Barrier() // let the full backlog queue up first
			for tag := 0; tag < tags; tag++ {
				for k := 0; k < n/tags; k++ {
					c.Recv(0, tag)
				}
			}
		}
		return nil
	})
}

// BenchmarkIprobeBacklogMiss polls for a tag that is not present while a
// large backlog of other-tag messages is queued — the worst case for a
// linear-scan mailbox (every miss walks the whole queue) and the common
// case for the NSR driver's polling loop under load.
func BenchmarkIprobeBacklogMiss(b *testing.B) {
	const n = 1024
	benchRun(b, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for k := 0; k < n; k++ {
				c.Isend(1, 1, []int64{int64(k)})
			}
			c.Barrier()
		} else {
			c.Barrier()
			for k := 0; k < n; k++ {
				if ok, _ := c.Iprobe(0, 2); ok {
					b.Error("unexpected hit")
				}
			}
			for k := 0; k < n; k++ {
				c.Recv(0, 1)
			}
		}
		return nil
	})
}

// BenchmarkAnySourceFanIn64 receives with AnySource from 64 senders, the
// wildcard pattern of the Send-Recv matching driver.
func BenchmarkAnySourceFanIn64(b *testing.B) {
	const procs, msgs = 65, 8
	benchRun(b, procs, func(c *Comm) error {
		if c.Rank() != 0 {
			for k := 0; k < msgs; k++ {
				c.Isend(0, 3, []int64{int64(c.Rank()), int64(k)})
			}
			return nil
		}
		for k := 0; k < msgs*(procs-1); k++ {
			c.Recv(AnySource, 3)
		}
		return nil
	})
}

// BenchmarkWorldSetup measures the fixed per-Run cost (world
// construction and teardown) with an empty body. Clean worlds are
// pooled across Run invocations, so steady-state setup reuses the
// mailboxes, tasks and comms of the previous run at the same size.
func BenchmarkWorldSetup(b *testing.B) {
	for _, procs := range []int{2, 64, 1024} {
		b.Run(fmt.Sprintf("p%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			body := func(c *Comm) error { return nil }
			for i := 0; i < b.N; i++ {
				if _, err := Run(procs, body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRanksLadder returns the world sizes for the ranks-scaling curve.
// The BENCH_RANKS environment variable caps the ladder (default 16384;
// BENCH_RANKS=131072 runs all of it).
func benchRanksLadder() []int {
	cap := 16384
	if s := os.Getenv("BENCH_RANKS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 2 {
			cap = v
		}
	}
	var out []int
	for _, p := range []int{1024, 4096, 16384, 65536, 131072} {
		if p <= cap {
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkRanksRing is the ranks-scaling curve (its 16K rung is bench/'s
// mpi.ring_s.direct.16k / mpi.ring_s.workers.16k): one world per op
// running a 4-round neighbor ring exchange plus a scalar allreduce, at
// 1K-131K ranks under both scheduler modes. Wall-clock per op is the headline number; direct
// mode's slope shows the runnable-set bottleneck the worker pool
// removes.
func BenchmarkRanksRing(b *testing.B) {
	for _, procs := range benchRanksLadder() {
		for _, mode := range []SchedMode{SchedDirect, SchedWorkers} {
			b.Run(fmt.Sprintf("p%d/%s", procs, mode), func(b *testing.B) {
				b.ReportAllocs()
				body := func(c *Comm) error {
					r, n := c.Rank(), c.Size()
					for k := 0; k < 4; k++ {
						c.Isend((r+1)%n, 0, []int64{int64(r), int64(k)})
						c.Recv((r+n-1)%n, 0)
					}
					c.AllreduceScalarInt64(OpMax, int64(r))
					return nil
				}
				for i := 0; i < b.N; i++ {
					if _, err := Run(procs, body, WithScheduler(mode), WithDeadline(10*time.Minute)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
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
