package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestSerialTriangle(t *testing.T) {
	// Triangle with one heavy edge: matching is exactly that edge.
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 1}})
	r := Serial(g)
	if err := VerifyLocallyDominant(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Cardinality != 1 || r.Weight != 5 || r.Mate[0] != 1 || r.Mate[2] != -1 {
		t.Errorf("result = %+v", r)
	}
}

func TestSerialPathAlternating(t *testing.T) {
	// Path with increasing weights 1,2,3,4 on 5 vertices: LD matching
	// takes edge {3,4} (w=4) and then {1,2} (w=2).
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(i, i+1, float64(i+1))
	}
	g := b.Build()
	r := Serial(g)
	if err := VerifyLocallyDominant(g, r); err != nil {
		t.Fatal(err)
	}
	if r.Weight != 6 || r.Cardinality != 2 {
		t.Errorf("weight=%g card=%d, want 6, 2", r.Weight, r.Cardinality)
	}
}

func TestSerialEqualsGreedyOracle(t *testing.T) {
	// Under a strict total edge order, locally-dominant == greedy.
	graphs := map[string]*graph.CSR{
		"social": gen.Social(800, 8, 1),
		"rmat":   gen.Graph500(9, 2),
		"sbp":    gen.SBP(600, 12, 10, 0.5, 3),
		"kmer":   gen.KMerGrids(8, 3, 8, 4),
		"path":   gen.Path(500),
		"grid":   gen.Grid2D(20, 25),
	}
	for name, g := range graphs {
		s, gr := Serial(g), Greedy(g)
		if s.Weight != gr.Weight || s.Cardinality != gr.Cardinality {
			t.Errorf("%s: serial (w=%g,c=%d) != greedy (w=%g,c=%d)",
				name, s.Weight, s.Cardinality, gr.Weight, gr.Cardinality)
			continue
		}
		for v := range s.Mate {
			if s.Mate[v] != gr.Mate[v] {
				t.Errorf("%s: mate[%d] differs: %d vs %d", name, v, s.Mate[v], gr.Mate[v])
				break
			}
		}
		if err := VerifyLocallyDominant(g, s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSerialUniformWeightsTieBreak(t *testing.T) {
	// Pathological instances: all weights equal. Hashed tie-breaking must
	// still yield a valid, locally dominant (hence maximal) matching.
	for _, g := range []*graph.CSR{gen.Path(1001), gen.Grid2D(30, 30)} {
		r := Serial(g)
		if err := VerifyLocallyDominant(g, r); err != nil {
			t.Fatal(err)
		}
		// A locally-dominant matching is maximal: on a path of n vertices
		// it has at least floor(n/3) edges... use the maximality check:
		// no edge has both endpoints unmatched.
		for v := 0; v < g.NumVertices(); v++ {
			if r.Mate[v] != -1 {
				continue
			}
			for _, a := range g.Neighbors(v) {
				if r.Mate[a] == -1 {
					t.Fatalf("edge {%d,%d} has both endpoints unmatched: not maximal", v, a)
				}
			}
		}
	}
}

func TestSerialEmptyAndIsolated(t *testing.T) {
	empty := graph.NewBuilder(0).Build()
	r := Serial(empty)
	if r.Cardinality != 0 || len(r.Mate) != 0 {
		t.Error("empty graph mismatch")
	}
	iso := graph.NewBuilder(5).Build()
	r = Serial(iso)
	for _, m := range r.Mate {
		if m != -1 {
			t.Error("isolated vertices must stay unmatched")
		}
	}
}

func TestSerialSingleEdge(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 3}})
	r := Serial(g)
	if r.Cardinality != 1 || r.Mate[0] != 1 || r.Mate[1] != 0 {
		t.Errorf("single edge not matched: %+v", r)
	}
}

func TestVerifyCatchesBadMatchings(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	// Asymmetric.
	if err := Verify(g, &Result{Mate: []int32{1, -1, -1, -1}}); err == nil {
		t.Error("asymmetric mate accepted")
	}
	// Non-edge.
	if err := Verify(g, &Result{Mate: []int32{2, -1, 0, -1}, Cardinality: 1}); err == nil {
		t.Error("non-edge match accepted")
	}
	// Wrong cardinality.
	if err := Verify(g, &Result{Mate: []int32{1, 0, -1, -1}, Cardinality: 2, Weight: 1}); err == nil {
		t.Error("wrong cardinality accepted")
	}
	// Not locally dominant: match the light edge, leave the heavy one.
	g2 := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 10}, {U: 2, V: 3, W: 1}})
	bad := &Result{Mate: []int32{1, 0, 3, 2}, Cardinality: 2, Weight: 2}
	if err := Verify(g2, bad); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	if err := VerifyLocallyDominant(g2, bad); err == nil {
		t.Error("non-LD matching passed the LD check")
	}
}

// optimalMatchingWeight brute-forces the maximum weight matching of a
// small graph (n <= 16) by bitmask dynamic programming.
func optimalMatchingWeight(g *graph.CSR) float64 {
	n := g.NumVertices()
	dp := make([]float64, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		// Find lowest set vertex; either leave it unmatched or pair it.
		v := 0
		for mask&(1<<v) == 0 {
			v++
		}
		rest := mask &^ (1 << v)
		best := dp[rest]
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if rest&(1<<a) != 0 {
				if w := dp[rest&^(1<<a)] + ws[i]; w > best {
					best = w
				}
			}
		}
		dp[mask] = best
	}
	return dp[1<<n-1]
}

func TestHalfApproxBoundOnSmallGraphs(t *testing.T) {
	// Compare against brute-force optimal matchings on small random
	// graphs: LD weight must be >= optimal/2.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(7)
		b := graph.NewBuilder(n)
		m := n + rng.Intn(2*n)
		for i := 0; i < m; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n), 1+rng.Float64()*9)
		}
		g := b.Build()
		opt := optimalMatchingWeight(g)
		ld := Serial(g).Weight
		if 2*ld < opt-1e-9 {
			t.Fatalf("trial %d: LD weight %g below half of optimal %g", trial, ld, opt)
		}
	}
}

func TestSerialDeterministic(t *testing.T) {
	g := gen.Social(400, 10, 9)
	a, b := Serial(g), Serial(g)
	for v := range a.Mate {
		if a.Mate[v] != b.Mate[v] {
			t.Fatal("serial matching not deterministic")
		}
	}
}

func TestSerialValidQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		g := gen.SBP(n, min(4, n), 5, 0.4, seed)
		r := Serial(g)
		return VerifyLocallyDominant(g, r) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
