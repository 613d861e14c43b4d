package mpi_test

import (
	"fmt"
	"time"

	"repro/internal/mpi"
)

// Example_haloExchange runs one toy stencil's halo exchange three ways
// on a 16-rank ring — point-to-point, a neighborhood collective over a
// graph topology, and one-sided puts — the three models the matching
// study compares. Each step a rank hands its two boundary cells to its
// ring neighbors and relaxes its interior; all three reach the same
// halo, and differ in the messages they send and the modeled time.
func Example_haloExchange() {
	const procs, steps, cells = 16, 25, 1000
	ring := func(r int) (left, right int) { return (r + procs - 1) % procs, (r + 1) % procs }

	run := func(name string, body func(c *mpi.Comm) (left, right int64)) {
		var halo [2]int64 // rank 0's, read after Run returns
		rep, err := mpi.Run(procs, func(c *mpi.Comm) error {
			if l, r := body(c); c.Rank() == 0 {
				halo = [2]int64{l, r}
			}
			return nil
		}, mpi.WithDeadline(time.Minute))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		tot := rep.Totals()
		fmt.Printf("%-12s rank 0 halo %v  p2p msgs %4d  puts %4d  nbr ops %3d  modeled %.3f ms\n",
			name, halo, tot.P2PMsgs, tot.PutMsgs, tot.NbrOps, rep.MaxVirtualTime*1e3)
	}

	// Send-Recv: two sends and two receives from named neighbors.
	run("send-recv", func(c *mpi.Comm) (int64, int64) {
		l, r := ring(c.Rank())
		left, right := int64(c.Rank()), int64(c.Rank())
		for s := 0; s < steps; s++ {
			c.Isend(l, 0, []int64{left})
			c.Isend(r, 1, []int64{right})
			fromRight, _ := c.Recv(r, 0)
			fromLeft, _ := c.Recv(l, 1)
			c.Compute(cells)
			left, right = fromLeft[0]+1, fromRight[0]+1
		}
		return left, right
	})

	// Neighborhood collective: one call moves both cells.
	run("neighborhood", func(c *mpi.Comm) (int64, int64) {
		l, r := ring(c.Rank())
		topo := c.CreateGraphTopo([]int{l, r})
		halo := []int64{int64(c.Rank()), int64(c.Rank())}
		for s := 0; s < steps; s++ {
			got := topo.NeighborAlltoallInt64(halo, 1)
			c.Compute(cells)
			halo[0], halo[1] = got[0]+1, got[1]+1
		}
		return halo[0], halo[1]
	})

	// RMA: puts into the neighbors' windows, a flush, and a count
	// exchange that tells each target its data is there, as the matching
	// code's per-round handshake does. A neighbor that has passed the
	// exchange may already put the next step's cells, so steps alternate
	// between two pairs of words.
	run("rma", func(c *mpi.Comm) (int64, int64) {
		l, r := ring(c.Rank())
		topo := c.CreateGraphTopo([]int{l, r})
		win := c.WinCreate(4) // words 2k, 2k+1: from the left and right neighbor
		left, right := int64(c.Rank()), int64(c.Rank())
		var local []int64
		for s := 0; s < steps; s++ {
			at := 2 * (s % 2)
			win.Put(l, at+1, []int64{left})
			win.Put(r, at, []int64{right})
			win.FlushAll()
			topo.NeighborAlltoallInt64([]int64{1, 1}, 1)
			local = win.ReadLocal(local, at, 2)
			c.Compute(cells)
			left, right = local[0]+1, local[1]+1
		}
		win.Free()
		return left, right
	})

	// Output:
	// send-recv    rank 0 halo [40 26]  p2p msgs  800  puts    0  nbr ops   0  modeled 0.149 ms
	// neighborhood rank 0 halo [40 26]  p2p msgs    0  puts    0  nbr ops 400  modeled 1.270 ms
	// rma          rank 0 halo [40 26]  p2p msgs    0  puts  800  nbr ops 400  modeled 1.460 ms
}
