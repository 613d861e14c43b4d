package matching

import (
	"testing"

	"repro/internal/gen"
)

// Wall-clock micro-benchmarks of the matchers. Serial, per-model run and
// Verify times are bench/'s matching.serial_s, matching.run_s.* and
// matching.verify_s rows, and the key-order sort is
// graph.BenchmarkKeyOrder; what stays here is what no row isolates.

func BenchmarkGreedyOracle(b *testing.B) {
	g := gen.Social(20000, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(g)
	}
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
