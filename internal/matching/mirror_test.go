package matching

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMirrorMatchesSearch checks graph.CSR.Mirror, the index the
// engines' records carry their target arc from, against a search of
// the far endpoint's row: for every arc u→v at index a, Mirror()[a] is
// the position of u in v's row (the k-th of parallel arcs pairing with
// the k-th back), so Adj[Offsets[v]+Mirror()[a]] == u, and the mirror
// of that arc is a again. Inputs are the generators the benchmark and
// experiments run (RGG, SBP, Social, Graph500) and fuzzGraph graphs,
// which hold self loops.
func TestMirrorMatchesSearch(t *testing.T) {
	inputs := map[string]*graph.CSR{
		"rgg":      gen.RGG(3000, gen.RGGRadiusForDegree(3000, 8), 5),
		"sbp":      gen.SBP(2000, 16, 12, 0.3, 6),
		"social":   gen.Social(2000, 8, 7),
		"graph500": gen.Graph500(11, 8),
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		data := make([]byte, 3*rng.Intn(80))
		rng.Read(data)
		inputs[fmt.Sprintf("fuzz%d", i)] = fuzzGraph(1+rng.Intn(64), data)
	}
	for name, g := range inputs {
		m := g.Mirror()
		if len(m) != int(g.NumArcs()) {
			t.Fatalf("%s: %d mirror entries for %d arcs", name, len(m), g.NumArcs())
		}
		for u := 0; u < g.NumVertices(); u++ {
			row := g.Neighbors(u)
			for i, v := range row {
				a := g.Offsets[u] + int64(i)
				first, ok := g.SearchNeighbor(int(v), u)
				if !ok {
					t.Fatalf("%s: arc %d->%d has no reverse arc", name, u, v)
				}
				k := 0 // earlier parallel arcs u→v
				for j := i - 1; j >= 0 && row[j] == v; j-- {
					k++
				}
				back := g.Offsets[v] + int64(m[a])
				if int(m[a]) != first+k || g.Adj[back] != int32(u) || m[back] != int32(i) {
					t.Fatalf("%s: arc %d->%d (index %d): mirror %d, want %d with Adj %d == %d and its mirror %d == %d",
						name, u, v, a, m[a], first+k, g.Adj[back], u, m[back], i)
				}
			}
		}
		if len(m) > 0 && &g.Mirror()[0] != &m[0] {
			t.Errorf("%s: second Mirror call built a new index", name)
		}
	}
}
