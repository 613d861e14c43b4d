// Using the MPI-3 runtime directly: a halo exchange over a process-graph
// topology implemented three ways — point-to-point, neighborhood
// collectives, and one-sided puts — the same three models the matching
// study compares, on a toy stencil so the mechanics are easy to see.
//
//	go run ./examples/commodels
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/mpi"
)

const (
	procs = 16
	steps = 50
	cells = 1000 // local cells per rank
)

// ringNeighbors gives each rank its left and right ring peers.
func ringNeighbors(r int) []int {
	return []int{(r + procs - 1) % procs, (r + 1) % procs}
}

// haloP2P exchanges boundary cells with explicit sends and receives.
func haloP2P(c *mpi.Comm, left, right int64) (newLeft, newRight int64) {
	l, r := ringNeighbors(c.Rank())[0], ringNeighbors(c.Rank())[1]
	c.Isend(l, 0, []int64{left})
	c.Isend(r, 1, []int64{right})
	fromRight, _ := c.Recv(r, 0)
	fromLeft, _ := c.Recv(l, 1)
	return fromLeft[0], fromRight[0]
}

func run(name string, body func(c *mpi.Comm) error) {
	rep, err := mpi.Run(procs, body, mpi.WithDeadline(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	tot := rep.Totals()
	fmt.Printf("%-12s modeled time %8.3fms  p2p msgs %6d  puts %5d  nbr ops %5d\n",
		name, rep.MaxVirtualTime*1e3, tot.P2PMsgs, tot.PutMsgs, tot.NbrOps)
}

func main() {
	fmt.Printf("halo exchange on a %d-rank ring, %d steps, %d cells/rank\n\n", procs, steps, cells)

	// 1. Classical Send-Recv.
	run("send-recv", func(c *mpi.Comm) error {
		left, right := int64(c.Rank()), int64(c.Rank())
		for s := 0; s < steps; s++ {
			l, r := haloP2P(c, left, right)
			c.Compute(cells) // relax the interior
			left, right = l+1, r+1
		}
		return nil
	})

	// 2. Neighborhood collectives over a graph topology.
	run("neighborhood", func(c *mpi.Comm) error {
		topo := c.CreateGraphTopo(ringNeighbors(c.Rank()))
		halo := []int64{int64(c.Rank()), int64(c.Rank())}
		for s := 0; s < steps; s++ {
			got := topo.NeighborAlltoallInt64(halo, 1)
			c.Compute(cells)
			halo[0], halo[1] = got[0]+1, got[1]+1
		}
		return nil
	})

	// 3. One-sided puts into neighbor windows, passive target.
	run("rma", func(c *mpi.Comm) error {
		topo := c.CreateGraphTopo(ringNeighbors(c.Rank()))
		win := c.WinCreate(2) // slot 0: from left, slot 1: from right
		win.LockAll()
		l, r := ringNeighbors(c.Rank())[0], ringNeighbors(c.Rank())[1]
		left, right := int64(c.Rank()), int64(c.Rank())
		var local []int64
		for s := 0; s < steps; s++ {
			win.Put(l, 1, []int64{left})
			win.Put(r, 0, []int64{right})
			win.FlushAll()
			// The count exchange doubles as the arrival notification,
			// exactly like the matching code's per-round handshake.
			topo.NeighborAlltoallInt64([]int64{1, 1}, 1)
			local = win.ReadLocal(local, 0, 2)
			c.Compute(cells)
			left, right = local[0]+1, local[1]+1
		}
		win.UnlockAll()
		win.Free()
		return nil
	})

	fmt.Println("\nsame stencil, three MPI communication models — the trade-offs mirror")
	fmt.Println("the matching study: per-message costs vs per-round neighborhood costs.")
}
