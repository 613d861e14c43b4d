package mpi

import (
	"testing"
	"testing/quick"
)

func TestPutGetBasic(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		win := c.WinCreate(8)
		win.LockAll()
		if c.Rank() == 0 {
			win.Put(1, 2, []int64{10, 20, 30})
			win.FlushAll()
			c.Isend(1, 0, []int64{1}) // synchronize: tell target data is there
		} else {
			c.Recv(0, 0)
			local := win.Local()
			if local[2] != 10 || local[3] != 20 || local[4] != 30 {
				t.Errorf("window = %v", local)
			}
			if local[0] != 0 || local[5] != 0 {
				t.Errorf("put touched bytes outside its range: %v", local)
			}
		}
		win.UnlockAll()
		c.Barrier()
		if c.Rank() == 0 {
			if got := win.Local()[0]; got != 0 {
				t.Errorf("untargeted window word = %d, want a fresh zero", got)
			}
		}
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutVisibilityAcrossCountExchange(t *testing.T) {
	// The paper's RMA pattern: puts, flush, then a neighborhood count
	// exchange tells each target how many words landed.
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		topo := c.CreateGraphTopo(ringNeighbors(c.Rank(), p))
		deg := topo.Degree()
		const slot = 4 // words reserved per neighbor
		win := c.WinCreate(deg * slot)
		win.LockAll()

		// Each rank puts (rank, seq) pairs into the slot its target
		// reserved for it. The target's slot for us is at index
		// (their NeighborIndex of us) * slot — exchange those indexes
		// first, as the paper's prefix-sum/alltoall scheme does.
		mine := make([]int64, deg)
		nbrs := ringNeighbors(c.Rank(), p)
		for i, nb := range nbrs {
			mine[i] = int64(topo.NeighborIndex(nb)) // our slot index for them, by construction i
		}
		theirIdx := topo.NeighborAlltoallInt64(mine, 1)

		counts := make([]int64, deg)
		for i, nb := range nbrs {
			n := int64(1 + (c.Rank()+nb)%3) // 1..3 words
			data := make([]int64, n)
			for k := range data {
				data[k] = int64(c.Rank()*100 + k)
			}
			win.Put(nb, int(theirIdx[i])*slot, data)
			counts[i] = n
		}
		win.FlushAll()
		incoming := topo.NeighborAlltoallInt64(counts, 1)

		local := win.Local()
		for i, nb := range nbrs {
			n := int(incoming[i])
			want := 1 + (nb+c.Rank())%3
			if n != want {
				t.Errorf("rank %d: count from %d = %d, want %d", c.Rank(), nb, n, want)
			}
			for k := 0; k < n; k++ {
				if local[i*slot+k] != int64(nb*100+k) {
					t.Errorf("rank %d: word %d from %d = %d", c.Rank(), k, nb, local[i*slot+k])
				}
			}
		}
		win.UnlockAll()
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutBoundsPanics(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		win := c.WinCreate(4)
		if c.Rank() == 0 {
			win.Put(1, 3, []int64{1, 2}) // overruns the 4-word window
		}
		win.Free()
		return nil
	})
	if err == nil {
		t.Fatal("out-of-bounds put must fail the run")
	}
}

func TestWindowMemoryAccounted(t *testing.T) {
	rep, err := runChecked(2, func(c *Comm) error {
		win := c.WinCreate(1000)
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rs := range rep.Stats {
		if rs.AllocHighWater != 8000 {
			t.Errorf("rank %d window high-water = %d, want 8000", r, rs.AllocHighWater)
		}
		if rs.AllocCurrent != 0 {
			t.Errorf("rank %d leaked %d buffer bytes", r, rs.AllocCurrent)
		}
	}
}

func TestFlushDrainsPendingTime(t *testing.T) {
	// Flushing after large puts must cost more than flushing after none.
	run := func(words int) float64 {
		rep, err := runChecked(2, func(c *Comm) error {
			win := c.WinCreate(words + 1)
			if c.Rank() == 0 {
				if words > 0 {
					win.Put(1, 0, make([]int64, words))
				}
				win.FlushAll()
			}
			c.Barrier()
			win.Free()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats[0].CommTime
	}
	if big, small := run(1<<16), run(0); big <= small {
		t.Errorf("flush after 512KiB of puts (%g) should cost more than empty flush (%g)", big, small)
	}
}

func TestDifferentWindowSizesPerRank(t *testing.T) {
	_, err := runChecked(3, func(c *Comm) error {
		size := func(r int) int { return (r + 1) * 2 }
		win := c.WinCreate(size(c.Rank()))
		// A put is bounded by the target's size, not the origin's: every
		// rank writes the last word of its successor's window.
		next, prev := (c.Rank()+1)%3, (c.Rank()+2)%3
		win.Put(next, size(next)-1, []int64{int64(c.Rank() + 1)})
		win.FlushAll()
		c.Barrier()
		local := win.Local()
		if len(local) != size(c.Rank()) || local[len(local)-1] != int64(prev+1) {
			t.Errorf("rank %d window = %v, want %d words ending in %d", c.Rank(), local, size(c.Rank()), prev+1)
		}
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAQuickPutGetIdentity(t *testing.T) {
	// Property: any vector put into a peer window is what the target
	// reads from Local() after a synchronising exchange.
	f := func(vals []int64) bool {
		if len(vals) > 256 {
			vals = vals[:256]
		}
		ok := true
		_, err := runChecked(2, func(c *Comm) error {
			win := c.WinCreate(len(vals) + 1)
			if c.Rank() == 0 {
				win.Put(1, 0, vals)
				win.FlushAll()
			}
			c.Barrier()
			if c.Rank() == 1 {
				got := win.Local()
				for i := range vals {
					if got[i] != vals[i] {
						ok = false
					}
				}
			}
			win.Free()
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
