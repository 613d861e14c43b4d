package graph

import (
	"math/rand"
	"testing"
)

// rmatEdges samples an RMAT-style edge list (Graph500 quadrant
// probabilities) for builder benchmarks, without going through the gen
// package (graph must stay importable from gen).
func rmatEdges(scale, edgeFactor int, seed int64) (int, []Edge) {
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for e := 0; e < m; e++ {
		u, v := 0, 0
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < 0.57:
			case r < 0.76:
				v |= 1 << bit
			case r < 0.95:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		edges = append(edges, Edge{U: u, V: v, W: rng.Float64() * 100})
	}
	return n, edges
}

// benchBuild measures one build path alone: the edge list is staged
// outside the timer each iteration (a build may reorder the builder's
// edge slice).
func benchBuild(b *testing.B, scale, edgeFactor int, build func(*Builder) *CSR) {
	n, pristine := rmatEdges(scale, edgeFactor, 1)
	builder := NewBuilder(n)
	builder.edges = make([]Edge, len(pristine))
	b.SetBytes(int64(len(pristine)) * 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(builder.edges, pristine)
		b.StartTimer()
		g := build(builder)
		if g.NumVertices() != n {
			b.Fatal("bad build")
		}
	}
}

// BenchmarkBuildRMAT1M is the acceptance benchmark: CSR construction
// from a >=1M-edge RMAT sample (scale 17, edge factor 8).
func BenchmarkBuildRMAT1M(b *testing.B) { benchBuild(b, 17, 8, (*Builder).Build) }

// BenchmarkBuildRMAT128K is a smaller variant for quick comparisons.
func BenchmarkBuildRMAT128K(b *testing.B) { benchBuild(b, 14, 8, (*Builder).Build) }

// BenchmarkBuildSerialRMAT1M measures the retained serial reference
// (the pre-radix global-sort construction) on the same input, so the
// Build speedup can be reproduced as a ratio of two contemporaneous runs
// rather than against stale numbers (bench/ tracks the shipped builder
// as graph.fromedges_s / graph.arcs_per_s).
func BenchmarkBuildSerialRMAT1M(b *testing.B) { benchBuild(b, 17, 8, (*Builder).buildSerial) }

func BenchmarkPermute(b *testing.B) {
	n, edges := rmatEdges(14, 8, 2)
	g := FromEdges(n, edges)
	perm := rand.New(rand.NewSource(3)).Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Permute(perm).NumVertices() != n {
			b.Fatal("bad permute")
		}
	}
}

// BenchmarkKeyOrder measures the build of the key-sorted adjacency
// index — the matching set-up kernel. The index is cached on the CSR, so
// every iteration asks a fresh shallow CSR over the same slices.
func BenchmarkKeyOrder(b *testing.B) {
	n, edges := rmatEdges(17, 8, 1)
	g := FromEdges(n, edges)
	b.SetBytes(g.NumArcs() * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &CSR{Offsets: g.Offsets, Adj: g.Adj, Weights: g.Weights}
		if int64(len(fresh.KeyOrder())) != g.NumArcs() {
			b.Fatal("bad index")
		}
	}
}

func BenchmarkSummary(b *testing.B) {
	n, edges := rmatEdges(14, 8, 4)
	g := FromEdges(n, edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Summary().Vertices != n {
			b.Fatal("bad summary")
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	n, edges := rmatEdges(14, 8, 5)
	g := FromEdges(n, edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Validate() != nil {
			b.Fatal("invalid")
		}
	}
}

func BenchmarkNumEdges(b *testing.B) {
	n, edges := rmatEdges(14, 8, 6)
	g := FromEdges(n, edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.NumEdges() == 0 {
			b.Fatal("no edges")
		}
		_ = n
	}
}
