package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestBarrierSynchronizesClocks(t *testing.T) {
	rep, err := runChecked(4, func(c *Comm) error {
		c.Compute(float64(c.Rank()) * 1000) // skew clocks
		c.Barrier()
		// After a barrier, all clocks are (at least) the maximum pre-barrier
		// clock; the slowest rank had ~3000 units.
		min := 3000 * c.Cost().ComputePerUnit
		if c.Now() < min {
			t.Errorf("rank %d clock %g after barrier, want >= %g", c.Rank(), c.Now(), min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestAllreduceInt64Ops(t *testing.T) {
	const p = 5
	_, err := runChecked(p, func(c *Comm) error {
		r := int64(c.Rank())
		in := []int64{r + 1, r + 1}
		sum := c.AllreduceInt64(OpSum, in)
		if sum[0] != 15 || sum[1] != 15 {
			t.Errorf("sum = %v, want [15 15]", sum)
		}
		if mx := c.AllreduceInt64(OpMax, in); mx[0] != 5 {
			t.Errorf("max = %v, want 5", mx)
		}
		if mn := c.AllreduceInt64(OpMin, in); mn[0] != 1 {
			t.Errorf("min = %v, want 1", mn)
		}
		if pr := c.AllreduceInt64(OpProd, []int64{r + 1}); pr[0] != 120 {
			t.Errorf("prod = %v, want 120", pr)
		}
		land := c.AllreduceInt64(OpLand, []int64{r}) // rank 0 contributes 0
		if land[0] != 0 {
			t.Errorf("land = %v, want 0", land)
		}
		lor := c.AllreduceInt64(OpLor, []int64{r})
		if lor[0] != 1 {
			t.Errorf("lor = %v, want 1", lor)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// allgatherInt64 gathers each rank's vector onto all ranks; result[r] is
// rank r's contribution. Contributions may differ in length (MPI's
// Allgatherv generality). No application gathers, so it lives here: the
// tests use it to drive the hub's deposit slots, and the neighborhood
// reference (refTopo) to verify topologies as CreateGraphTopo once did.
func (c *Comm) allgatherInt64(mine []int64) [][]int64 {
	h, p, tmax, last := c.enterColl(func(h *collHub, p int) {
		h.ensureDeps()
		h.deps[p][c.rank] = mine
	})
	deps := h.deps[p]
	out := make([][]int64, c.w.n)
	for r := range out {
		out[r] = append([]int64(nil), deps[r].([]int64)...)
	}
	c.exitColl(tmax, last, int64(8*len(mine)))
	return out
}

func TestAllgatherBcastGatherReduce(t *testing.T) {
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		all := c.allgatherInt64([]int64{int64(c.Rank() * 2)})
		for r := 0; r < p; r++ {
			if all[r][0] != int64(r*2) {
				t.Errorf("allgather[%d] = %v", r, all[r])
			}
		}
		var payload []int64
		if c.Rank() == 2 {
			payload = []int64{7, 8, 9}
		}
		b := c.BcastInt64(2, payload)
		if len(b) != 3 || b[2] != 9 {
			t.Errorf("bcast got %v", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMatchesLocalFoldQuick(t *testing.T) {
	// Property: for random vectors, Allreduce(sum) equals the serial fold.
	f := func(seed int64, width uint8) bool {
		p := 3
		w := int(width%8) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]int64, p)
		for r := range inputs {
			inputs[r] = make([]int64, w)
			for i := range inputs[r] {
				inputs[r][i] = rng.Int63n(1 << 30)
			}
		}
		want := make([]int64, w)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		ok := true
		_, err := runChecked(p, func(c *Comm) error {
			got := c.AllreduceInt64(OpSum, inputs[c.Rank()])
			for i := range want {
				if got[i] != want[i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveDeterministicAcrossRanks(t *testing.T) {
	// Reductions fold in arrival order within a shard; a wrapping
	// product is still associative and commutative, so all ranks get
	// bit-identical results whatever the schedule.
	const p = 6
	_, err := runChecked(p, func(c *Comm) error {
		in := []int64{math.MaxInt64/3 + int64(c.Rank())}
		out := c.AllreduceInt64(OpProd, in)
		all := c.allgatherInt64(out)
		for r := 1; r < p; r++ {
			if all[r][0] != all[0][0] {
				t.Error("allreduce result differs between ranks")
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func floatBits(f float64) uint64 {
	return math.Float64bits(f)
}

// TestDepositSlotsShared: newID, CreateGraphTopo, WinCreate and
// BcastInt64 share the hub's one parity set of deposit slots. The body
// creates one window after an odd number of collectives and one after
// an even number, so WinCreate's republish into the next round's set
// lands in both parities, and it checks every rank's windows, topology
// peers, ids and broadcast values. It runs in a direct world and twice
// in a pooled one; the body's collective count is odd, so a second run
// on a reused skeleton, whose hub carries on from the first run's round
// count, swaps the parities.
func TestDepositSlotsShared(t *testing.T) {
	for _, tc := range []struct{ n, runs int }{{40, 1}, {pooledMinProcs + 44, 2}} {
		for run := 0; run < tc.runs; run++ {
			n := tc.n
			wins := make([][2]*Win, n)
			_, err := Run(n, func(c *Comm) error {
				r := c.Rank()
				id0 := c.newID()                                               // 1 collective before the first window
				a := c.WinCreate(r + 1)                                        // 3 more
				topo := c.CreateGraphTopo([]int{(r + n - 1) % n, (r + 1) % n}) // 2 more
				b := c.WinCreate(2*r + 3)                                      // after 6
				var data []int64
				if r == n-1 {
					data = []int64{int64(run), 77}
				}
				got := c.BcastInt64(n-1, data)
				id1 := c.newID() // 11 collectives in all
				wins[r] = [2]*Win{a.win, b.win}

				if id0 != 1 || id1 != 4 {
					return fmt.Errorf("rank %d: ids %d, %d, want 1, 4", r, id0, id1)
				}
				if len(got) != 2 || got[0] != int64(run) || got[1] != 77 {
					return fmt.Errorf("rank %d: bcast %v, want [%d 77]", r, got, run)
				}
				for k, v := range []WinHandle{a, b} {
					if len(v.win.bufs) != n {
						return fmt.Errorf("rank %d: window %d has %d buffers, want %d", r, k, len(v.win.bufs), n)
					}
					for q, buf := range v.win.bufs {
						if want := []int{q + 1, 2*q + 3}[k]; buf.size != want {
							return fmt.Errorf("rank %d: window %d buffer of rank %d holds %d words, want %d", r, k, q, buf.size, want)
						}
					}
				}
				for i, p := range topo.peers {
					if p.c.rank != topo.neighbors[i] || p.NeighborIndex(r) != int(topo.at[i]) {
						return fmt.Errorf("rank %d: peer %d is rank %d's topology, want rank %d's", r, i, p.c.rank, topo.neighbors[i])
					}
				}
				recv := topo.NeighborAlltoallInt64([]int64{int64(r), int64(r)}, 1)
				if recv[0] != int64(topo.neighbors[0]) || recv[1] != int64(topo.neighbors[1]) {
					return fmt.Errorf("rank %d: exchange got %v from %v", r, recv, topo.neighbors)
				}
				return nil
			}, WithDeadline(30*time.Second))
			if err != nil {
				t.Fatalf("n=%d run %d: %v", n, run, err)
			}
			for r, w := range wins {
				if w != wins[0] || w[0] == w[1] {
					t.Fatalf("n=%d run %d: rank %d holds windows %p, %p; rank 0 %p, %p", n, run, r, w[0], w[1], wins[0][0], wins[0][1])
				}
			}
		}
	}
}
