package gen

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestGeneratorsIndependentOfWorkerCount pins the chunked-stream
// contract: every generator produces a bit-identical CSR under
// GOMAXPROCS 1, 2 and 8. Sizes are chosen to exceed one sample chunk
// (1<<14) so the multi-chunk path actually splits, and the RGG's grid to
// have more cell rows than workers, so its row passes split too.
func TestGeneratorsIndependentOfWorkerCount(t *testing.T) {
	if c := rggCells(20000, RGGRadiusForDegree(20000, 8)); c <= 8 {
		t.Fatalf("RGG case has %d cell rows, want more than 8", c)
	}
	cases := []struct {
		name string
		f    func() *graph.CSR
	}{
		{"RGG", func() *graph.CSR { return RGG(20000, RGGRadiusForDegree(20000, 8), 3) }},
		{"RMAT", func() *graph.CSR { return RMAT(11, 10, 0.57, 0.19, 0.19, 0.05, 4) }},
		{"SBP", func() *graph.CSR { return SBP(12000, 24, 10, 0.4, 5) }},
		{"KMer", func() *graph.CSR { return KMerGrids(40, 4, 20, 6) }},
		{"Social", func() *graph.CSR { return Social(15000, 8, 7) }},
		{"Banded", func() *graph.CSR { return BandedMesh(20000, 16, 2, 0.01, 8) }},
	}
	at := func(procs int, f func() *graph.CSR) *graph.CSR {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		return f()
	}
	for _, tc := range cases {
		ref := at(1, tc.f)
		for _, procs := range []int{2, 8} {
			if d := csrDiff(ref, at(procs, tc.f)); d != "" {
				t.Errorf("%s: GOMAXPROCS 1 vs %d: %s", tc.name, procs, d)
			}
		}
	}
}
