package mpi

import (
	"testing"
)

func TestSplitBasic(t *testing.T) {
	const p = 6
	_, err := runChecked(p, func(c *Comm) error {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub == nil {
			t.Error("nil subcomm for nonnegative color")
			return nil
		}
		if sub.Size() != p/2 {
			t.Errorf("subcomm size = %d, want %d", sub.Size(), p/2)
		}
		// With key = old rank, ordering is preserved within each parity.
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Errorf("world %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), want)
		}
		if sub.wrank != c.Rank() {
			t.Errorf("world rank mangled: %d vs %d", sub.wrank, c.Rank())
		}
		// Collectives run independently per group: sum of world ranks of
		// the parity class.
		sum := sub.AllreduceInt64(OpSum, []int64{int64(c.Rank())})[0]
		want := int64(0 + 2 + 4)
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum != want {
			t.Errorf("world %d: group sum = %d, want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		// One group, keys in reverse order: sub rank = p-1-world rank.
		sub := c.Split(0, -c.Rank())
		if want := p - 1 - c.Rank(); sub.Rank() != want {
			t.Errorf("world %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		var color int
		if c.Rank() == 3 {
			color = -1 // opts out, like MPI_UNDEFINED
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color returned a communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			t.Errorf("subcomm size = %d, want 3", sub.Size())
		}
		sub.Barrier() // must not involve rank 3
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitIsolatesP2PTraffic(t *testing.T) {
	// Same (src-within-comm, tag) coordinates on two communicators must
	// not cross: message context isolation.
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		sub := c.Split(c.Rank()%2, c.Rank()) // evens: {0,2}, odds: {1,3}
		// World traffic: rank 0 -> rank 1, tag 5.
		if c.Rank() == 0 {
			c.Isend(1, 5, []int64{100})
		}
		// Sub traffic: sub-rank 0 -> sub-rank 1, tag 5 (world 0->2, 1->3).
		if sub.Rank() == 0 {
			sub.Isend(1, 5, []int64{int64(200 + c.Rank()%2)})
		}
		c.Barrier()
		if c.Rank() == 1 {
			// World receive must get the world message even though a sub
			// message with the same (src=0, tag=5) coordinates exists on
			// this process's mailbox... (it does not: sub src 0 for odd
			// group is world rank 1). Receive both spaces explicitly.
			d, _ := c.Recv(0, 5)
			if d[0] != 100 {
				t.Errorf("world recv got %d", d[0])
			}
		}
		if sub.Rank() == 1 {
			d, _ := sub.Recv(0, 5)
			if want := int64(200 + c.Rank()%2); d[0] != want {
				t.Errorf("sub recv got %d, want %d", d[0], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitConcurrentGroupWork(t *testing.T) {
	// Two halves independently run topology + neighborhood collectives;
	// a world barrier at the end checks nothing deadlocked or crossed.
	const p = 6
	_, err := runChecked(p, func(c *Comm) error {
		sub := c.Split(c.Rank()/3, c.Rank()) // {0,1,2} and {3,4,5}
		nbrs := ringNeighbors(sub.Rank(), sub.Size())
		topo := sub.CreateGraphTopo(nbrs)
		got := topo.NeighborAlltoallInt64([]int64{int64(c.Rank()), int64(c.Rank())}, 1)
		for i, nb := range nbrs {
			wantWorld := int64(sub.worldRank(nb))
			if got[i] != wantWorld {
				t.Errorf("world %d: neighbor %d sent %d, want %d", c.Rank(), nb, got[i], wantWorld)
			}
		}
		// Windows on the subcomm.
		win := sub.WinCreate(2)
		win.Put((sub.Rank()+1)%sub.Size(), 0, []int64{int64(c.Rank())})
		win.FlushAll()
		sub.Barrier()
		left := (sub.Rank() + sub.Size() - 1) % sub.Size()
		if got := win.Local()[0]; got != int64(sub.worldRank(left)) {
			t.Errorf("world %d: window holds %d, want %d", c.Rank(), got, sub.worldRank(left))
		}
		win.Free()
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOfSplit(t *testing.T) {
	const p = 8
	_, err := runChecked(p, func(c *Comm) error {
		half := c.Split(c.Rank()/4, c.Rank())   // {0..3}, {4..7}
		quarter := half.Split(half.Rank()/2, 0) // pairs
		if quarter.Size() != 2 {
			t.Errorf("quarter size = %d", quarter.Size())
		}
		sum := quarter.AllreduceInt64(OpSum, []int64{int64(c.Rank())})[0]
		// Pairs are consecutive world ranks (2k, 2k+1).
		base := int64(c.Rank() / 2 * 2)
		if sum != base+base+1 {
			t.Errorf("world %d: pair sum = %d", c.Rank(), sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitSharedClock(t *testing.T) {
	// The subcomm shares the process clock: work on the subcomm advances
	// the world communicator's view of time.
	_, err := runChecked(2, func(c *Comm) error {
		sub := c.Split(0, 0)
		before := c.Now()
		sub.Barrier()
		sub.AllreduceInt64(OpSum, []int64{1})
		if c.Now() <= before {
			t.Error("subcomm activity did not advance the shared clock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
