package mpi

import (
	"runtime"
	"testing"
	"time"
)

// Steady-state memory footprint of a kept world. The idle set is
// emptied before the baseline snapshot, so no skeleton an earlier run
// left idle is counted in it; the Report (whose stats ledgers
// legitimately outlive the run) is dropped before the final GC, and the
// skeleton the two runs shared is checked to have survived it. What
// remains is the recyclable per-rank state an idle world pins between
// runs: mailboxes with their retained buckets and rings, tasks, comms,
// procState, and the collective hub.

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
// an idle n-rank world after two runs of footprintBody (the second run
// reuses the first's skeleton, so retained rings and buckets are at
// their steady state).
func measureFootprint(tb testing.TB, n int) (total int64, perRank float64) {
	tb.Helper()
	var before, after runtime.MemStats
	releaseWorlds()
	runtime.GC()
	runtime.ReadMemStats(&before)
	var kept *worldState
	for i := 0; i < 2; i++ {
		rep, err := Run(n, footprintBody, WithDeadline(5*time.Minute))
		if err != nil {
			tb.Fatal(err)
		}
		_ = rep // dropped before the final GC: ledgers outlive runs by design
		ws := idleWorld(n)
		if ws == nil || (kept != nil && ws != kept) {
			tb.Fatalf("run %d of %d ranks did not keep its skeleton, or did not reuse the first run's", i, n)
		}
		kept = ws
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if idleWorld(n) != kept {
		tb.Fatalf("the kept %d-rank skeleton did not survive the final GC", n)
	}
	total = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if total < 0 {
		total = 0
	}
	return total, float64(total) / float64(n)
}

// footprintCeiling16K is the regression gate asserted by
// TestWorldFootprintCeiling16K, set at the 1061 bytes/rank a 16K-rank
// world measured then plus ~25% headroom. It measures 1244 (104 bytes
// of them the tasks' wake channels, 192 a rank's one ring of 4 entries,
// 24 the header of the mailbox's perturbed-pick scratch list).
// Raise it only with a re-measurement justifying the growth.
const footprintCeiling16K = 1350

// TestWorldFootprintCeiling16K guards the per-rank memory diet: an
// idle 16K-rank world must retain at most footprintCeiling16K bytes
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
