package matching

import (
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

// benchTelemetry measures a full distributed run with telemetry off or
// on; comparing the two quantifies the observer cost of the round logs
// (bench/ tracks it as matching.run_s.nsr/.ncl on traced-mixed, observers
// on, against sbp-dense, off, plus telemetry.merge_s).
func benchTelemetry(b *testing.B, m Model, roundLog int) {
	g := gen.Social(4000, 8, 21)
	o := opts(8, m)
	o.RoundLog = roundLog
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunNSRTelemetryOff(b *testing.B) { benchTelemetry(b, NSR, 0) }
func BenchmarkRunNSRTelemetryOn(b *testing.B)  { benchTelemetry(b, NSR, 1024) }
func BenchmarkRunNCLTelemetryOff(b *testing.B) { benchTelemetry(b, NCL, 0) }
func BenchmarkRunNCLTelemetryOn(b *testing.B)  { benchTelemetry(b, NCL, 1024) }
