package matching

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// A self-mated vertex passes the range, symmetry and edge checks, so it
// needs a check of its own, and Verify and NewResult must agree on it.
// Vertex 0 carries a self loop beside the edge {1,2}; only a hand-built
// CSR can (the builder drops them).
func TestSelfMateRejected(t *testing.T) {
	g := &graph.CSR{
		Offsets: []int64{0, 1, 2, 3},
		Adj:     []int32{0, 2, 1},
		Weights: []float64{7, 1, 1},
	}
	mate := []int32{0, 2, 1}
	if err := Verify(g, &Result{Mate: mate, Weight: 1, Cardinality: 1}); err == nil {
		t.Error("Verify accepted a vertex matched to itself (uncounted)")
	}
	if err := Verify(g, &Result{Mate: mate, Weight: 8, Cardinality: 2}); err == nil {
		t.Error("Verify accepted a vertex matched to itself (counted)")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewResult accepted a vertex matched to itself")
			}
		}()
		NewResult(g, mate)
	}()
}

// withSelfLoops copies g with a self loop of weight loop[v] put into
// the row of every vertex v with loop[v] != 0, in its sorted place: what
// a decoded file may hold and the builder never emits.
func withSelfLoops(g *graph.CSR, loop []float64) *graph.CSR {
	n := g.NumVertices()
	h := &graph.CSR{Offsets: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		ws := g.NeighborWeights(v)
		looped := loop[v] == 0
		for i, a := range g.Neighbors(v) {
			if !looped && int(a) > v {
				h.Adj, h.Weights = append(h.Adj, int32(v)), append(h.Weights, loop[v])
				looped = true
			}
			h.Adj, h.Weights = append(h.Adj, a), append(h.Weights, ws[i])
		}
		if !looped {
			h.Adj, h.Weights = append(h.Adj, int32(v)), append(h.Weights, loop[v])
		}
		h.Offsets[v+1] = int64(len(h.Adj))
	}
	return h
}

// No matcher may pick a self loop: on a graph with loops every one of
// them computes the matching of the graph without. Every third vertex
// gets a loop heavier than any edge.
func TestSelfLoopsNeverMatched(t *testing.T) {
	plain := gen.Social(600, 6, 9)
	loops := make([]float64, plain.NumVertices())
	for v := 0; v < len(loops); v += 3 {
		loops[v] = 1e9
	}
	g := withSelfLoops(plain, loops)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := Serial(plain)
	same := func(name string, r *Result) {
		t.Helper()
		if err := VerifyLocallyDominant(g, r); err != nil {
			t.Errorf("%s: %v", name, err)
			return
		}
		for v := range want.Mate {
			if r.Mate[v] != want.Mate[v] {
				t.Errorf("%s: mate[%d] = %d, want %d", name, v, r.Mate[v], want.Mate[v])
				return
			}
		}
	}
	same("serial", Serial(g))
	same("greedy", Greedy(g))
	for _, m := range Models {
		res, err := Run(g, opts(4, m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		same(m.String(), res.Result)
	}
	o := opts(4, NSR)
	o.Engine = EngineMaximal
	res, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMaximal(g, res.Result); err != nil {
		t.Errorf("maximal: %v", err)
	}
}

// verifySerial is the obviously-correct reference for Verify's scan: one
// vertex after the other, first violation wins.
func verifySerial(g *graph.CSR, mate []int32) error {
	for v, m := range mate {
		u := int(m)
		switch {
		case u == -1:
		case u < 0 || u >= len(mate):
			return fmt.Errorf("matching: vertex %d matched to out-of-range %d", v, u)
		case u == v:
			return fmt.Errorf("matching: vertex %d matched to itself", v)
		case int(mate[u]) != v:
			return fmt.Errorf("matching: asymmetric mates: %d->%d but %d->%d", v, u, u, mate[u])
		case !g.HasEdge(v, u):
			return fmt.Errorf("matching: matched pair {%d,%d} is not an edge", v, u)
		}
	}
	return nil
}

// Verify, which searches each matched edge once, must report what the
// reference scan checking every vertex in full would: the violation at
// the lowest vertex. Each round plants a few corruptions of random kinds
// at random vertices.
func TestVerifyReportsLowestViolation(t *testing.T) {
	n := 3<<16 + 1234
	g := gen.RGG(n, gen.RGGRadiusForDegree(n, 6), 4)
	good := Serial(g)
	if err := Verify(g, good); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	mate := make([]int32, n)
	for round := 0; round < 40; round++ {
		copy(mate, good.Mate)
		for k := 1 + r.Intn(4); k > 0; k-- {
			v := r.Intn(n)
			switch r.Intn(5) {
			case 0:
				mate[v] = int32(n + r.Intn(3))
			case 1:
				mate[v] = -2
			case 2:
				mate[v] = int32(v)
			case 3:
				mate[v] = int32(r.Intn(n)) // asymmetric, or symmetric by luck
			default:
				u := r.Intn(n) // symmetric, but an edge only by luck
				mate[v], mate[u] = int32(u), int32(v)
			}
		}
		want := verifySerial(g, mate)
		if want == nil {
			continue
		}
		got := Verify(g, &Result{Mate: mate, Weight: good.Weight, Cardinality: good.Cardinality})
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("round %d: Verify = %v, serial scan = %v", round, got, want)
		}
	}

	// A symmetric pair that is not an edge, its old partners unmatched:
	// tally searches only from an edge's lower endpoint, and that is
	// where the error must come from.
	copy(mate, good.Mate)
	v, u := n/2+17, 100
	for g.HasEdge(v, u) {
		u++
	}
	for _, x := range []int{v, u} {
		if mate[x] >= 0 {
			mate[mate[x]] = -1
		}
	}
	mate[v], mate[u] = int32(u), int32(v)
	want := fmt.Sprintf("matching: matched pair {%d,%d} is not an edge", u, v)
	if got := Verify(g, &Result{Mate: mate}); got == nil || got.Error() != want {
		t.Errorf("non-edge pair {%d,%d}: Verify = %v, want %q", u, v, got, want)
	}
}
