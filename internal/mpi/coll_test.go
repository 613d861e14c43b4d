package mpi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
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
		h.ensureIdeps()
		h.ideps[p][c.rank] = mine
	})
	deps := h.ideps[p]
	out := make([][]int64, c.w.n)
	for r := range out {
		out[r] = append([]int64(nil), deps[r]...)
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
