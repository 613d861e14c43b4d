package mpi

import "testing"

// ringNeighbors returns the two ring neighbors of rank r in a world of p.
func ringNeighbors(r, p int) []int {
	if p == 1 {
		return nil
	}
	if p == 2 {
		return []int{1 - r}
	}
	return []int{(r + p - 1) % p, (r + 1) % p}
}

func TestNeighborAlltoallRing(t *testing.T) {
	const p = 5
	_, err := runChecked(p, func(c *Comm) error {
		nbrs := ringNeighbors(c.Rank(), p)
		topo := c.CreateGraphTopo(nbrs)
		send := make([]int64, len(nbrs))
		for i := range send {
			send[i] = int64(c.Rank()*1000 + nbrs[i])
		}
		got := topo.NeighborAlltoallInt64(send, 1)
		for i, nb := range nbrs {
			want := int64(nb*1000 + c.Rank())
			if got[i] != want {
				t.Errorf("rank %d from %d: got %d want %d", c.Rank(), nb, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborAlltoallvVariableSizes(t *testing.T) {
	const p = 4
	// Star topology: rank 0 in the middle.
	_, err := runChecked(p, func(c *Comm) error {
		var nbrs []int
		if c.Rank() == 0 {
			nbrs = []int{1, 2, 3}
		} else {
			nbrs = []int{0}
		}
		topo := c.CreateGraphTopo(nbrs)
		send := make([][]int64, topo.Degree())
		for i := range nbrs {
			// Rank r sends r+1 copies of its rank to each neighbor.
			for k := 0; k < c.Rank()+1; k++ {
				send[i] = append(send[i], int64(c.Rank()))
			}
		}
		got := topo.NeighborAlltoallvInt64(send)
		for i, nb := range nbrs {
			if len(got[i]) != nb+1 {
				t.Errorf("rank %d got %d words from %d, want %d", c.Rank(), len(got[i]), nb, nb+1)
			}
			for _, v := range got[i] {
				if v != int64(nb) {
					t.Errorf("rank %d corrupted payload from %d: %v", c.Rank(), nb, got[i])
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmptyNeighborhoodIsNonBlocking(t *testing.T) {
	// Ranks 2,3 have no neighbors; they must not be required for 0<->1
	// neighborhood collectives (unlike global collectives).
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		var nbrs []int
		switch c.Rank() {
		case 0:
			nbrs = []int{1}
		case 1:
			nbrs = []int{0}
		}
		topo := c.CreateGraphTopo(nbrs)
		if c.Rank() <= 1 {
			// Isolated ranks never call this; it must still complete.
			got := topo.NeighborAlltoallInt64([]int64{int64(c.Rank())}, 1)
			if got[0] != int64(1-c.Rank()) {
				t.Errorf("rank %d got %v", c.Rank(), got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsymmetricTopologyPanics(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		var nbrs []int
		if c.Rank() == 0 {
			nbrs = []int{1} // rank 1 does not reciprocate
		}
		c.CreateGraphTopo(nbrs)
		return nil
	})
	if err == nil {
		t.Fatal("asymmetric topology must be rejected")
	}
}

func TestMultipleTopologiesAreIndependent(t *testing.T) {
	const p = 3
	_, err := runChecked(p, func(c *Comm) error {
		ringNbrs := ringNeighbors(c.Rank(), p)
		var fullNbrs []int
		for r := 0; r < p; r++ {
			if r != c.Rank() {
				fullNbrs = append(fullNbrs, r)
			}
		}
		ring, full := c.CreateGraphTopo(ringNbrs), c.CreateGraphTopo(fullNbrs)
		same := func(v int64, n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				out[i] = v
			}
			return out
		}
		// Interleave calls on both topologies; traffic must not cross.
		a := ring.NeighborAlltoallInt64(same(int64(10+c.Rank()), len(ringNbrs)), 1)
		b := full.NeighborAlltoallInt64(same(int64(20+c.Rank()), len(fullNbrs)), 1)
		for i, nb := range ringNbrs {
			if a[i] != int64(10+nb) {
				t.Errorf("ring traffic corrupted: %v", a[i])
			}
		}
		for i, nb := range fullNbrs {
			if b[i] != int64(20+nb) {
				t.Errorf("full traffic corrupted: %v", b[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNeighborCollectiveChargesDegree(t *testing.T) {
	// A denser neighborhood must cost more virtual time per round than a
	// sparse one — the mechanism behind the paper's NCL degradation on
	// dense process graphs (Tables III/IV).
	round := func(full bool) float64 {
		const p = 8
		rep, err := runChecked(p, func(c *Comm) error {
			var nbrs []int
			if full {
				for r := 0; r < p; r++ {
					if r != c.Rank() {
						nbrs = append(nbrs, r)
					}
				}
			} else {
				nbrs = ringNeighbors(c.Rank(), p)
			}
			topo := c.CreateGraphTopo(nbrs)
			for i := 0; i < 50; i++ {
				topo.NeighborAlltoallInt64(make([]int64, topo.Degree()), 1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	sparse, dense := round(false), round(true)
	if dense <= sparse {
		t.Errorf("dense neighborhood rounds (%g) should cost more than sparse (%g)", dense, sparse)
	}
}

func TestINeighborAlltoallvOverlap(t *testing.T) {
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		nbrs := ringNeighbors(c.Rank(), p)
		topo := c.CreateGraphTopo(nbrs)
		send := make([][]int64, topo.Degree())
		for i, nb := range nbrs {
			send[i] = []int64{int64(c.Rank()*100 + nb)}
		}
		req := topo.INeighborAlltoallvInt64(send)
		c.Compute(1000) // overlap with transfer
		got := req.WaitInto(nil)
		for i, nb := range nbrs {
			if got[i][0] != int64(nb*100+c.Rank()) {
				t.Errorf("rank %d: got %v from %d", c.Rank(), got[i], nb)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNbrRequestDoubleWaitPanics(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		topo := c.CreateGraphTopo(ringNeighbors(c.Rank(), 2))
		req := topo.INeighborAlltoallvInt64([][]int64{{1}})
		req.WaitInto(nil)
		req.WaitInto(nil) // must panic
		return nil
	})
	if err == nil {
		t.Fatal("double WaitInto must fail the run")
	}
}

func TestOverlapSavesVirtualTime(t *testing.T) {
	// The point of the nonblocking form: compute between start and wait
	// should overlap the transfer, finishing earlier than the blocking
	// sequence (exchange then compute).
	const p, work = 2, 400
	run := func(nonblocking bool) float64 {
		rep, err := runChecked(p, func(c *Comm) error {
			topo := c.CreateGraphTopo(ringNeighbors(c.Rank(), p))
			send := [][]int64{make([]int64, 4096)}
			for k := 0; k < 20; k++ {
				if nonblocking {
					req := topo.INeighborAlltoallvInt64(send)
					c.Compute(work)
					req.WaitInto(nil)
				} else {
					topo.NeighborAlltoallvInt64(send)
					c.Compute(work)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	if nb, bl := run(true), run(false); nb >= bl {
		t.Errorf("nonblocking (%g) should not be slower than blocking (%g)", nb, bl)
	}
}
