package mpi

import (
	"testing"
	"time"
)

// Steady-state allocation contracts for the hot path: after warmup the
// runtime, whose messages live by value in kept mailbox rings, must
// complete point-to-point round trips (3-word payloads, so the spill
// path too) and scalar reductions without touching the heap.
// testing.AllocsPerRun
// calls its body runs+1 times with GOMAXPROCS(1) and counts mallocs
// process-wide, so the measuring rank's peer executes exactly runs+1
// matching iterations (themselves allocation-free in steady state).

func TestRoundTripZeroAlloc(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		sbuf := [3]int64{1, 2, 3}
		var rbuf [3]int64
		peer := 1 - c.Rank()
		roundTrip := func() {
			c.Isend(peer, 0, sbuf[:])
			c.RecvInto(peer, 0, rbuf[:])
		}
		// Warm the mailbox rings and their spill slots.
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
				t.Errorf("3-word Isend/RecvInto round trip: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				roundTrip()
			}
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalarZeroAlloc(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		reduce := func() {
			if got := c.AllreduceScalarInt64(OpSum, int64(c.Rank()+1)); got != 3 {
				t.Errorf("scalar allreduce = %d, want 3", got)
			}
		}
		for i := 0; i < 4; i++ {
			reduce()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, reduce); avg != 0 {
				t.Errorf("AllreduceScalarInt64: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				reduce()
			}
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestIprobeRecvIntoZeroAlloc: the Send-Recv drain's per-message path —
// a wildcard matched probe-receive, with the ring's entry entering and
// leaving the wildcard-front heap around every message — stays off the
// heap once the rings and the heap array are warm.
func TestIprobeRecvIntoZeroAlloc(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		sbuf := [3]int64{1, 2, 3}
		var rbuf [3]int64
		peer := 1 - c.Rank()
		roundTrip := func() {
			c.Isend(peer, 0, sbuf[:])
			c.Probe(AnySource, AnyTag) // park until the peer's message is queued
			if ok, st := c.IprobeRecvInto(AnySource, AnyTag, rbuf[:]); !ok || st.Count != 3 {
				t.Errorf("matched probe-receive after a successful Probe: ok=%v %+v", ok, st)
			}
		}
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
				t.Errorf("Isend/Probe/IprobeRecvInto round trip: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				roundTrip()
			}
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}
