package mpi

import (
	"runtime"
	"testing"
	"time"
)

// Steady-state memory footprint of a pooled world. The measurement
// protocol matters: sync.Pool drops its contents after two GC cycles
// (the victim cache survives one), so the skeleton is pulled out of the
// pool with acquireWorldState and held across the final GC, and the
// Report (whose stats ledgers legitimately outlive the run) is dropped
// first. What remains is the recyclable per-rank state a resident world
// pins between runs: mailboxes with their retained buckets and rings,
// tasks, comms, procState, and the collective hub.

// footprintBody is the workload that populates the skeleton: the same
// 4-round ring exchange + scalar allreduce as bench/'s mpi.ring_s.*.16k,
// so every mailbox ends the run with its steady-state bucket and ring
// complement.
func footprintBody(c *Comm) error {
	r, n := c.Rank(), c.Size()
	for k := 0; k < 4; k++ {
		c.Isend((r+1)%n, 0, []int64{int64(r), int64(k)})
		c.Recv((r+n-1)%n, 0)
	}
	c.AllreduceScalarInt64(OpMax, int64(r))
	return nil
}

// measureFootprint returns the steady-state live-heap bytes retained by
// a pooled n-rank world after two runs of footprintBody (the second run
// reuses the first's skeleton, so retained rings and buckets are at
// their steady state).
func measureFootprint(tb testing.TB, n int) (total int64, perRank float64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // flush pool victims from earlier tests
	runtime.ReadMemStats(&before)
	for i := 0; i < 2; i++ {
		rep, err := Run(n, footprintBody, WithDeadline(5*time.Minute))
		if err != nil {
			tb.Fatal(err)
		}
		_ = rep // dropped before the final GC: ledgers outlive runs by design
	}
	ws := acquireWorldState(n) // pin the skeleton so GC cannot drop it
	if ws.n != n {
		tb.Fatalf("pooled skeleton lost before measurement (got size %d, want %d)", ws.n, n)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	releaseWorldState(ws)
	total = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if total < 0 {
		total = 0
	}
	return total, float64(total) / float64(n)
}

// footprintCeiling16K is the regression gate asserted by
// TestWorldFootprintCeiling16K: the measured steady-state bytes/rank at
// 16K ranks (1079) plus 25% headroom. Raise it only with a
// re-measurement justifying the growth.
const footprintCeiling16K = 1350

// TestWorldFootprintCeiling16K guards the per-rank memory diet: a
// pooled 16K-rank world must retain at most footprintCeiling16K bytes
// per rank between runs. Part of make scale-smoke.
func TestWorldFootprintCeiling16K(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates heap bookkeeping; footprint gate runs in the non-race suite")
	}
	if testing.Short() {
		t.Skip("multi-second 16K-rank measurement; skipped under -short")
	}
	const n = 16384
	total, perRank := measureFootprint(t, n)
	t.Logf("steady-state footprint at %d ranks: %d bytes total, %.1f bytes/rank", n, total, perRank)
	if perRank > footprintCeiling16K {
		t.Fatalf("steady-state footprint %.1f bytes/rank exceeds ceiling %d (memory diet regression)", perRank, footprintCeiling16K)
	}
}
