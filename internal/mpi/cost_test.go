package mpi

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDefaultCostModelValid(t *testing.T) {
	m := reflect.ValueOf(*DefaultCostModel())
	for i := 0; i < m.NumField(); i++ {
		if v := m.Field(i).Float(); v <= 0 {
			t.Errorf("default %s = %g, want a positive cost", m.Type().Field(i).Name, v)
		}
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := log2Ceil(n); got != want {
			t.Errorf("log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCollCostMonotone(t *testing.T) {
	m := DefaultCostModel()
	if m.collCost(16, 100) >= m.collCost(256, 100) {
		t.Error("collective cost must grow with rank count")
	}
	if m.collCost(16, 100) >= m.collCost(16, 1<<20) {
		t.Error("collective cost must grow with payload")
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	_, err := testRun(1, func(c *Comm) error {
		t0 := c.Now()
		c.Compute(1000)
		want := t0 + 1000*c.Cost().ComputePerUnit
		if math.Abs(c.Now()-want) > 1e-15 {
			t.Errorf("clock = %g, want %g", c.Now(), want)
		}
		if c.Stats().CompTime <= 0 {
			t.Error("compute time not booked")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestComputeUnitsExact checks that ComputeUnits(n) leaves the clock and
// the compute ledger bit-identical to n calls of Compute(1), from random
// starting clocks and ledgers, under random CostModels, for n in
// [0, 10⁶]. One float64(n)·ComputePerUnit add would round differently
// on nearly every case.
func TestComputeUnitsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 1))
	units := []float64{DefaultCostModel().ComputePerUnit, 0, 1e-9, 3e-7, 0.1, math.SmallestNonzeroFloat64}
	for len(units) < 12 {
		units = append(units, math.Ldexp(1+rng.Float64(), rng.IntN(60)-50))
	}
	for _, unit := range units {
		cost := *DefaultCostModel()
		cost.ComputePerUnit = unit
		_, err := Run(1, func(c *Comm) error {
			for _, n := range []int64{0, 1, 2, 3, 1e6, rng.Int64N(1e6 + 1), rng.Int64N(1000)} {
				now0 := math.Ldexp(rng.Float64(), rng.IntN(40)-20)
				comp0 := now0 * rng.Float64()
				c.ps.now, c.ps.rs.CompTime = now0, comp0
				for i := int64(0); i < n; i++ {
					c.Compute(1)
				}
				wantNow, wantComp := c.ps.now, c.ps.rs.CompTime
				c.ps.now, c.ps.rs.CompTime = now0, comp0
				c.ComputeUnits(n)
				if math.Float64bits(c.ps.now) != math.Float64bits(wantNow) || math.Float64bits(c.ps.rs.CompTime) != math.Float64bits(wantComp) {
					t.Errorf("unit %g, clock %g, ledger %g: ComputeUnits(%d) left clock %x ledger %x; %d×Compute(1) %x %x",
						unit, now0, comp0, n, math.Float64bits(c.ps.now), math.Float64bits(c.ps.rs.CompTime),
						n, math.Float64bits(wantNow), math.Float64bits(wantComp))
				}
			}
			return nil
		}, WithCost(&cost))
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestMoreMessagesCostMoreVirtualTime(t *testing.T) {
	// Per-message alpha must make N small messages cost more than one
	// message carrying the same bytes — the root cause of NSR's
	// disadvantage versus aggregated NCL in the paper.
	run := func(msgs, words int) float64 {
		rep, err := testRun(2, func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					c.Isend(1, 0, make([]int64, words))
				}
			} else {
				for i := 0; i < msgs; i++ {
					c.Recv(0, 0)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	many := run(1000, 1)
	one := run(1, 1000)
	if many <= 5*one {
		t.Errorf("1000 single-word messages (%g) should cost far more than one 1000-word message (%g)", many, one)
	}
}

func TestVirtualTimeNonNegativeQuick(t *testing.T) {
	f := func(units uint16) bool {
		rep, err := Run(2, func(c *Comm) error {
			c.Compute(float64(units))
			c.Barrier()
			return nil
		})
		return err == nil && rep.MaxVirtualTime >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateTotals(t *testing.T) {
	rep, err := testRun(3, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, 0, []int64{1, 2}) // 16 bytes
		}
		if c.Rank() == 1 {
			c.Recv(0, 0)
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.Totals()
	if tot.P2PMsgs != 1 || tot.P2PBytes != 16 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.CollOps != 3 {
		t.Errorf("coll ops = %d, want 3 (one barrier per rank)", tot.CollOps)
	}
}
