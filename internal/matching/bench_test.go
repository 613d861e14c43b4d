package matching

import (
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Wall-clock micro-benchmarks of the matchers. Serial and per-model run
// times are bench/'s matching.serial_s and matching.run_s.* rows; what
// stays here is what those rows do not isolate. The graph keeps its
// key-order index after the first call, so every benchmark here but
// BenchmarkRunCold times a warm graph; the sort itself is
// graph.BenchmarkKeyOrder.

func BenchmarkGreedyOracle(b *testing.B) {
	g := gen.Social(20000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g)
	}
}

// benchRun times one NCL run on the rgg-sparse shape at a twentieth of
// the size; graphOf hands each iteration its graph.
func benchRun(b *testing.B, graphOf func(*graph.CSR) *graph.CSR) {
	n := 40000
	g := gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 2)
	g.KeyOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(graphOf(g), Options{Procs: 8, Model: NCL, Deadline: time.Minute}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunWarm is a Run on a graph that already has its index: what
// every Run after the first pays. BenchmarkRunCold is a Run on a fresh
// shallow CSR over the same slices: the first Run on a graph. The
// difference is the sort.
func BenchmarkRunWarm(b *testing.B) { benchRun(b, func(g *graph.CSR) *graph.CSR { return g }) }
func BenchmarkRunCold(b *testing.B) {
	benchRun(b, func(g *graph.CSR) *graph.CSR {
		return &graph.CSR{Offsets: g.Offsets, Adj: g.Adj, Weights: g.Weights}
	})
}

func BenchmarkVerifyLocallyDominant(b *testing.B) {
	g := gen.Social(20000, 10, 1)
	r := Serial(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyLocallyDominant(g, r); err != nil {
			b.Fatal(err)
		}
	}
}
