package analysis

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
)

// benchReport builds one traced ring-exchange world: every rank sends
// right and receives left for the given number of rounds, then a
// barrier. The workload is communication-dense so the trace carries the
// analyzer's full event mix (sends, receives, classified waits, a
// collective). Built once per benchmark; the analyzer is what's timed.
func benchReport(b *testing.B, procs, rounds int) *mpi.Report {
	b.Helper()
	payload := make([]int64, 8)
	rep, err := mpi.Run(procs, func(c *mpi.Comm) error {
		right := (c.Rank() + 1) % procs
		left := (c.Rank() + procs - 1) % procs
		for r := 0; r < rounds; r++ {
			c.Compute(float64(10 + c.Rank()%7)) // mild imbalance: real waits
			c.Isend(right, r, payload)
			c.Recv(left, r)
		}
		c.Barrier()
		return nil
	}, mpi.WithEventTrace(4*rounds+16), mpi.WithDeadline(5*time.Minute))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkAnalyze times the full post-mortem pass (wait states, late
// receiver, critical path, efficiency) and reports events/sec (bench/
// metric analysis.events_per_s). Rounds shrink as ranks grow so
// each world stays a comparable total event count.
func BenchmarkAnalyze(b *testing.B) {
	for _, cfg := range []struct{ procs, rounds int }{
		{1 << 10, 256},
		{1 << 12, 64},
		{1 << 14, 16},
	} {
		b.Run(fmt.Sprintf("ranks=%d", cfg.procs), func(b *testing.B) {
			rep := benchReport(b, cfg.procs, cfg.rounds)
			var events int
			for r := 0; r < rep.Procs; r++ {
				events += rep.Events(r).Len()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := Analyze(rep, Options{Model: "NSR"})
				if err != nil {
					b.Fatal(err)
				}
				if rec.CriticalPath.LengthSec != rep.MaxVirtualTime {
					b.Fatalf("path length %v != %v", rec.CriticalPath.LengthSec, rep.MaxVirtualTime)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			b.ReportMetric(float64(events), "events")
		})
	}
}
