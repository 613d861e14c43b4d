package matching

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestRoundLogSeries runs every model with round telemetry enabled and
// checks the merged series tells the convergence story the paper's §V-D
// reasons about: the unresolved cross-edge count drains monotonically to
// zero, the matched count never regresses and ends at exactly the
// matched vertices, and protocol/byte activity is non-trivial.
func TestRoundLogSeries(t *testing.T) {
	g := gen.Social(1500, 8, 11)
	const p = 8
	for _, m := range Models {
		t.Run(m.String(), func(t *testing.T) {
			o := opts(p, m)
			o.RoundLog = 1024
			res, err := Run(g, o)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Telemetry
			if s == nil || s.Rounds() == 0 {
				t.Fatal("no telemetry series despite RoundLog > 0")
			}
			if s.Procs != p {
				t.Errorf("series Procs = %d, want %d", s.Procs, p)
			}
			if s.Drops != 0 {
				t.Errorf("series dropped %d rows", s.Drops)
			}
			if s.Total != int64(g.NumVertices()) {
				t.Errorf("series Total = %d, want |V| = %d", s.Total, g.NumVertices())
			}
			prevUnresolved := s.Points[0].Unresolved
			prevDone := s.Points[0].Done
			prevTime := s.Points[0].Time
			var req, bytes int64
			for _, pt := range s.Points {
				if pt.Unresolved > prevUnresolved {
					t.Fatalf("unresolved grew %d -> %d at round %d", prevUnresolved, pt.Unresolved, pt.Round)
				}
				if pt.Done < prevDone {
					t.Fatalf("done regressed %d -> %d at round %d", prevDone, pt.Done, pt.Round)
				}
				if pt.Time < prevTime {
					t.Fatalf("virtual time regressed at round %d", pt.Round)
				}
				if pt.Req < 0 || pt.Rej < 0 || pt.Inv < 0 || pt.Bytes < 0 {
					t.Fatalf("negative per-round delta at round %d: %+v", pt.Round, pt)
				}
				prevUnresolved, prevDone, prevTime = pt.Unresolved, pt.Done, pt.Time
				req += pt.Req
				bytes += pt.Bytes
			}
			final := s.Final()
			if final.Unresolved != 0 {
				t.Errorf("final unresolved = %d, want 0", final.Unresolved)
			}
			if want := 2 * int64(res.Cardinality); final.Done != want {
				t.Errorf("final done = %d, want matched vertices %d", final.Done, want)
			}
			if req == 0 || bytes == 0 {
				t.Errorf("series shows no protocol activity: req=%d bytes=%d", req, bytes)
			}
		})
	}
}

// TestRoundLogDisabledByDefault pins the zero-cost-when-off contract at
// the API level: without Options.RoundLog there is no series.
func TestRoundLogDisabledByDefault(t *testing.T) {
	res, err := Run(gen.Path(40), opts(2, NSR))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Errorf("Telemetry = %+v, want nil when RoundLog is unset", res.Telemetry)
	}
}

// telemetryCeilingPerRank is TestTelemetryFootprint's gate on the heap a
// rank's telemetry allocates over a run: about 1670 bytes/rank measured
// at 4096 ranks (2-CPU x86-64 VM, Go 1.24), with ample headroom.
// World-width rows (a ledger cell and a previous-row cell per rank,
// 64 KB at 4096 ranks) or rows preallocated to the log's capacity
// (36 KB at 512) would exceed it many times over.
const telemetryCeilingPerRank = 8192

// TestTelemetryFootprint runs NCL matching on 4096 ranks, four vertices
// each, with round logs of capacity 512 and without, and bounds the
// difference in bytes allocated per rank: a rank's telemetry must cost
// its degree and the rounds it records, not the world size or the
// capacity.
func TestTelemetryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank runs; skipped under -short")
	}
	const p = 4096
	n := 4 * p
	g := gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 7001+p)
	allocated := func(roundLog int) uint64 {
		var before, after runtime.MemStats
		o := opts(p, NCL)
		o.RoundLog = roundLog
		runtime.ReadMemStats(&before)
		if _, err := Run(g, o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(0) // leave a skeleton idle, so both measured runs reuse it
	off, on := allocated(0), allocated(512)
	perRank := (float64(on) - float64(off)) / p
	t.Logf("telemetry allocates %.0f bytes/rank (%d with round logs, %d without)", perRank, on, off)
	if perRank > telemetryCeilingPerRank {
		t.Errorf("telemetry allocates %.0f bytes/rank, ceiling %d", perRank, telemetryCeilingPerRank)
	}
}
