package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// pathGraph returns a path 0-1-...-(n-1) with unit weights.
func pathGraph(n int) *CSR {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

func randomGraph(t testing.TB, n int, m int, seed int64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n), rng.Float64()*100)
	}
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("random graph invalid: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 2.5}, {1, 2, 1.0}, {2, 3, 4.0}, {0, 3, 0.5}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 || g.NumArcs() != 8 {
		t.Errorf("sizes: V=%d E=%d arcs=%d", g.NumVertices(), g.NumEdges(), g.NumArcs())
	}
	if w, ok := g.EdgeWeight(1, 0); !ok || w != 2.5 {
		t.Errorf("EdgeWeight(1,0) = %v,%v", w, ok)
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge 0-2")
	}
	if g.Degree(0) != 2 || g.Degree(2) != 2 {
		t.Error("bad degrees")
	}
}

func TestBuilderDedupKeepsMaxWeight(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 3)
	b.AddEdge(1, 0, 7) // same edge, reversed, heavier
	b.AddEdge(0, 1, 5)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 7 {
		t.Errorf("weight = %g, want max 7", w)
	}
}

func TestBuilderDropsSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 5)
	b.AddEdge(0, 2, 1)
	g := b.Build()
	if g.NumEdges() != 1 || g.Degree(1) != 0 {
		t.Errorf("self loop survived: E=%d deg(1)=%d", g.NumEdges(), g.Degree(1))
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Error("empty graph misreports")
	}
	g2 := NewBuilder(5).Build() // isolated vertices
	if g2.NumVertices() != 5 || g2.NumEdges() != 0 {
		t.Error("isolated-vertex graph misreports")
	}
}

func TestBandwidthAndProfile(t *testing.T) {
	p := pathGraph(6)
	if bw := p.Bandwidth(); bw != 1 {
		t.Errorf("path bandwidth = %d, want 1", bw)
	}
	if pr := p.Profile(); pr != 5 {
		t.Errorf("path profile = %d, want 5", pr)
	}
	g := FromEdges(10, []Edge{{0, 9, 1}})
	if bw := g.Bandwidth(); bw != 9 {
		t.Errorf("bandwidth = %d, want 9", bw)
	}
}

func TestPermuteIsIsomorphic(t *testing.T) {
	g := randomGraph(t, 30, 80, 1)
	perm := rand.New(rand.NewSource(2)).Perm(30)
	h := g.Permute(perm)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), h.NumEdges())
	}
	for v := 0; v < 30; v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			w, ok := h.EdgeWeight(perm[v], perm[int(a)])
			if !ok || w != ws[i] {
				t.Fatalf("edge {%d,%d} lost or reweighted under permutation", v, a)
			}
		}
	}
}

func TestSummary(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}})
	st := g.Summary()
	if st.MaxDeg != 3 || st.Edges != 3 || st.AvgDeg != 1.5 {
		t.Errorf("summary = %+v", st)
	}
	if st.MinW != 1 || st.MaxW != 3 {
		t.Errorf("weight range = [%g,%g]", st.MinW, st.MaxW)
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(t, 20, 50, 3)
	h := FromEdges(20, g.EdgeList())
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("edge list lost edges")
	}
	for v := 0; v < 20; v++ {
		if h.Degree(v) != g.Degree(v) {
			t.Fatal("edge list changed structure")
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := randomGraph(t, 25, 60, 4)
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumArcs() != g.NumArcs() {
		t.Fatal("sizes changed in round trip")
	}
	for i := range g.Adj {
		if g.Adj[i] != h.Adj[i] || g.Weights[i] != h.Weights[i] {
			t.Fatal("payload changed in round trip")
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a graph file"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestKeyOfSymmetricAndTotal(t *testing.T) {
	k1 := KeyOf(3, 8, 1.5)
	k2 := KeyOf(8, 3, 1.5)
	if k1 != k2 {
		t.Error("edge key not symmetric in endpoints")
	}
	// Same weight, different edges: hash must discriminate.
	a := KeyOf(0, 1, 1.0)
	b := KeyOf(1, 2, 1.0)
	if a == b {
		t.Error("distinct edges share a key")
	}
	if !a.Less(b) && !b.Less(a) {
		t.Error("keys not totally ordered")
	}
	// Weight dominates hash.
	lo := KeyOf(5, 6, 1.0)
	hi := KeyOf(7, 8, 2.0)
	if !lo.Less(hi) {
		t.Error("heavier edge must order above lighter regardless of hash")
	}
}

func TestCSRInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw) + 1
		g := randomGraph(t, n, m, seed)
		if g.Validate() != nil {
			return false
		}
		// Arc count is even (no self loops) and equals 2*NumEdges.
		if g.NumArcs()%2 != 0 || g.NumArcs() != 2*g.NumEdges() {
			return false
		}
		// Handshake: sum of degrees equals arc count.
		var degSum int64
		for v := 0; v < n; v++ {
			degSum += int64(g.Degree(v))
		}
		return degSum == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteInverseQuick(t *testing.T) {
	// Property: permuting by p then by p^-1 restores the original arrays.
	f := func(seed int64) bool {
		g := randomGraph(t, 15, 40, seed)
		perm := rand.New(rand.NewSource(seed ^ 0x55)).Perm(15)
		inv := make([]int, 15)
		for i, p := range perm {
			inv[p] = i
		}
		back := g.Permute(perm).Permute(inv)
		if back.NumArcs() != g.NumArcs() {
			return false
		}
		for i := range g.Adj {
			if g.Adj[i] != back.Adj[i] || g.Weights[i] != back.Weights[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	// 5, 6 isolated
	g := b.Build()
	labels, count := g.ConnectedComponents()
	if count != 4 {
		t.Fatalf("components = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0-1-2 should share a component")
	}
	if labels[3] != labels[4] || labels[3] == labels[0] {
		t.Error("3-4 should be their own component")
	}
	if labels[5] == labels[6] {
		t.Error("isolated vertices must differ")
	}
}

func TestComponentsEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if _, count := g.ConnectedComponents(); count != 0 {
		t.Error("empty graph has components")
	}
}

func TestComponentsQuick(t *testing.T) {
	// Property: endpoints of every edge share a label; label count equals
	// number of distinct labels; path graph has one component.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		g := randomGraph(t, n, n, seed)
		labels, count := g.ConnectedComponents()
		seen := map[int]bool{}
		for v := 0; v < n; v++ {
			if labels[v] < 0 || labels[v] >= count {
				return false
			}
			seen[labels[v]] = true
			for _, a := range g.Neighbors(v) {
				if labels[a] != labels[v] {
					return false
				}
			}
		}
		return len(seen) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if _, count := pathGraph(10).ConnectedComponents(); count != 1 {
		t.Error("path must be one component")
	}
}

func TestBuilderArgumentChecks(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("negative builder", func() { NewBuilder(-1) })
	b := NewBuilder(3)
	assertPanics("edge out of range", func() { b.AddEdge(0, 5, 1) })
	assertPanics("negative vertex", func() { b.AddEdge(-1, 0, 1) })
	b.AddEdge(0, 1, 1)
	if len(b.edges) != 1 {
		t.Errorf("%d edges recorded, want 1", len(b.edges))
	}
	g := b.Build()
	if g.AvgDegree() != 2.0/3.0 {
		t.Errorf("avg degree = %g", g.AvgDegree())
	}
	assertPanics("permute wrong length", func() { g.Permute([]int{0}) })
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *CSR { return FromEdges(3, []Edge{{0, 1, 2}, {1, 2, 3}}) }

	g := mk()
	g.Offsets[1] = 99 // non-monotone / out of bounds
	if g.Validate() == nil {
		t.Error("bad offsets accepted")
	}

	g = mk()
	g.Adj[0] = 77 // out-of-range neighbor
	if g.Validate() == nil {
		t.Error("out-of-range neighbor accepted")
	}

	g = mk()
	g.Weights[0] = 99 // asymmetric weight
	if g.Validate() == nil {
		t.Error("asymmetric weight accepted")
	}

	g = mk()
	g.Weights = g.Weights[:1] // length mismatch
	if g.Validate() == nil {
		t.Error("weights length mismatch accepted")
	}
}

func TestSaveLoadFileErrors(t *testing.T) {
	g := pathGraph(3)
	if err := g.SaveFile("/nonexistent-dir/x.csr"); err == nil {
		t.Error("save to bad path accepted")
	}
	if _, err := LoadFile("/nonexistent-dir/x.csr"); err == nil {
		t.Error("load of missing file accepted")
	}
	dir := t.TempDir()
	if err := g.SaveFile(dir + "/g.csr"); err != nil {
		t.Fatal(err)
	}
	h, err := LoadFile(dir + "/g.csr")
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Error("file round trip lost edges")
	}
}
