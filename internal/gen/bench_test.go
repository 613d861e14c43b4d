package gen

import "testing"

// bench/'s gen.*_s rows time the RGG, Graph500, SBP and Social
// generators at benchmark sizes. What stays here is the two Large
// dev-loop instruments and the generators no row covers.

// BenchmarkRGGLarge is the acceptance benchmark for end-to-end
// generate+build on a ~1.6M-edge geometric graph.
func BenchmarkRGGLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RGG(400000, RGGRadiusForDegree(400000, 8), int64(i))
	}
}

// BenchmarkGraph500Large is the >=1M-edge RMAT end-to-end companion to
// the graph package's Build-only acceptance benchmark.
func BenchmarkGraph500Large(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Graph500(16, int64(i))
	}
}

func BenchmarkKMerGrids(b *testing.B) {
	for i := 0; i < b.N; i++ {
		KMerGrids(1000, 5, 9, int64(i))
	}
}

func BenchmarkBandedMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BandedMesh(50000, 32, 3, 0.002, int64(i))
	}
}
