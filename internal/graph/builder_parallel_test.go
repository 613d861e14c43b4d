package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// rmatEdges samples an RMAT-style edge list (Graph500 quadrant
// probabilities) without going through the gen package (graph must stay
// importable from gen).
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

// sameCSR reports whether two CSRs are bit-identical.
func sameCSR(a, b *CSR) bool {
	if len(a.Offsets) != len(b.Offsets) || len(a.Adj) != len(b.Adj) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			return false
		}
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] || a.Weights[i] != b.Weights[i] {
			return false
		}
	}
	return true
}

// TestBuildMatchesSerialReference is the tentpole property: on random
// edge lists — duplicates with distinct weights (max-weight merge),
// repeated identical edges, self loops, both endpoint orders — the
// parallel counting-sort Build is bit-identical to the retained serial
// global-sort reference.
func TestBuildMatchesSerialReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	f := func(seed int64, nRaw uint16, mRaw uint16) bool {
		n := int(nRaw)%200 + 1
		m := int(mRaw) % 4000
		rng := rand.New(rand.NewSource(seed))
		es := make([]Edge, m)
		for i := range es {
			u, v := rng.Intn(n), rng.Intn(n)
			if rng.Intn(10) == 0 {
				v = u // forced self loop
			}
			w := float64(rng.Intn(8)) // narrow range: force duplicate weights
			if rng.Intn(2) == 0 {
				w = rng.Float64() * 100
			}
			es[i] = Edge{U: u, V: v, W: w}
		}
		b := NewBuilder(n)
		b.UseEdges(es)
		got := b.Build()
		want := b.buildSerial()
		if !sameCSR(got, want) {
			t.Logf("n=%d m=%d seed=%d: parallel and serial builds differ", n, m, seed)
			return false
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildIndependentOfWorkerCount pins the determinism contract
// directly: the same edge list builds the same CSR under GOMAXPROCS=1
// and GOMAXPROCS=8.
func TestBuildIndependentOfWorkerCount(t *testing.T) {
	_, edges := rmatEdges(12, 8, 7)
	build := func(procs int) *CSR {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		b := NewBuilder(1 << 12)
		b.UseEdges(append([]Edge(nil), edges...))
		return b.Build()
	}
	if !sameCSR(build(1), build(8)) {
		t.Fatal("Build output depends on GOMAXPROCS")
	}
}

// TestBuildDuplicateMaxWeightAndLoops pins the merge conventions on a
// hand-built case: duplicates keep the maximum weight regardless of
// endpoint order, self loops vanish.
func TestBuildDuplicateMaxWeightAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.UseEdges([]Edge{
		{U: 0, V: 1, W: 2},
		{U: 1, V: 0, W: 7}, // same edge, reversed, heavier
		{U: 0, V: 1, W: 3},
		{U: 2, V: 2, W: 99}, // self loop: dropped
		{U: 2, V: 3, W: 1},
	})
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 7 {
		t.Fatalf("weight(0,1) = %g,%v, want 7", w, ok)
	}
	if g.Degree(2) != 1 {
		t.Fatalf("self loop survived: deg(2)=%d", g.Degree(2))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUseEdgesRangeCheck ensures the bulk path still panics on
// out-of-range endpoints, like AddEdge.
func TestUseEdgesRangeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge accepted")
		}
	}()
	NewBuilder(3).UseEdges([]Edge{{U: 0, V: 3, W: 1}})
}

// TestPermuteMatchesBuilderPath checks the direct CSR permute against
// the original builder-roundtrip implementation.
func TestPermuteMatchesBuilderPath(t *testing.T) {
	g := randomGraph(t, 300, 2000, 11)
	perm := rand.New(rand.NewSource(12)).Perm(300)
	got := g.Permute(perm)
	// Reference: the old implementation, via the builder.
	b := NewBuilder(300)
	for v := 0; v < 300; v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if int(a) >= v {
				b.AddEdge(perm[v], perm[int(a)], ws[i])
			}
		}
	}
	if !sameCSR(got, b.Build()) {
		t.Fatal("direct Permute differs from builder-path permute")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteRejectsNonPermutation(t *testing.T) {
	g := pathGraph(4)
	for _, bad := range [][]int{{0, 1, 2, 2}, {0, 1, 2, 4}, {-1, 1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v accepted", bad)
				}
			}()
			g.Permute(bad)
		}()
	}
}

// TestSummaryMatchesNaive cross-checks the fused parallel Summary
// against independently computed quantities.
func TestSummaryMatchesNaive(t *testing.T) {
	g := randomGraph(t, 500, 3000, 13)
	st := g.Summary()
	if st.Edges != g.NumEdges() {
		t.Errorf("Edges=%d, NumEdges=%d", st.Edges, g.NumEdges())
	}
	if st.MaxDeg != g.MaxDegree() {
		t.Errorf("MaxDeg=%d, MaxDegree=%d", st.MaxDeg, g.MaxDegree())
	}
	if st.Bandwidth != g.Bandwidth() {
		t.Errorf("Bandwidth=%d, want %d", st.Bandwidth, g.Bandwidth())
	}
	if st.AvgDeg != g.AvgDegree() {
		t.Errorf("AvgDeg=%g, want %g", st.AvgDeg, g.AvgDegree())
	}
	minW, maxW := g.Weights[0], g.Weights[0]
	for _, w := range g.Weights {
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if st.MinW != minW || st.MaxW != maxW {
		t.Errorf("weights [%g,%g], want [%g,%g]", st.MinW, st.MaxW, minW, maxW)
	}
}

func TestSummaryEmptyGraph(t *testing.T) {
	st := (&CSR{Offsets: []int64{0}}).Summary()
	if st.Vertices != 0 || st.Edges != 0 || st.MinW != 0 || st.MaxW != 0 {
		t.Errorf("empty summary = %+v", st)
	}
	if st2 := (&CSR{}).Summary(); st2.Vertices != 0 {
		t.Errorf("zero-value summary = %+v", st2)
	}
}

func TestSortArcsOrdersPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		a := make([]int32, n)
		w := make([]float64, n)
		for i := range a {
			a[i] = int32(rng.Intn(10)) // heavy duplication
			w[i] = float64(rng.Intn(4))
		}
		sortArcs(a, w)
		for i := 1; i < n; i++ {
			if a[i-1] > a[i] || (a[i-1] == a[i] && w[i-1] > w[i]) {
				t.Fatalf("trial %d: unsorted at %d: (%d,%g) before (%d,%g)", trial, i, a[i-1], w[i-1], a[i], w[i])
			}
		}
	}
}
