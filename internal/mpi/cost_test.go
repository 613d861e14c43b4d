package mpi

import (
	"math"
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
