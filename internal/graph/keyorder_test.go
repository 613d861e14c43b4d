package graph

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// randomRows builds a CSR straight from random rows, bypassing the
// builder, so that it has what the builder never emits: self loops and
// repeated arcs (the only way two arcs of one row can tie on KeyOf),
// beside empty rows and weights drawn from three values. KeyOrder needs
// neither symmetry nor strictly sorted rows.
func randomRows(r *rand.Rand) *CSR {
	n := 1 + r.Intn(40)
	g := &CSR{Offsets: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		d := 0
		if r.Intn(4) > 0 {
			d = r.Intn(60)
		}
		row := make([]int, d)
		for i := range row {
			row[i] = r.Intn(n)
		}
		sort.Ints(row)
		for _, a := range row {
			g.Adj = append(g.Adj, int32(a))
			g.Weights = append(g.Weights, float64(1+r.Intn(3)))
		}
		g.Offsets[v+1] = int64(len(g.Adj))
	}
	return g
}

// keyOrderReference is the obviously-correct index: every row's
// positions under a stable sort by decreasing KeyOf.
func keyOrderReference(g *CSR) []int32 {
	order := make([]int32, 0, g.NumArcs())
	for v := 0; v < g.NumVertices(); v++ {
		nbrs, ws := g.Neighbors(v), g.NeighborWeights(v)
		pos := make([]int32, len(nbrs))
		for i := range pos {
			pos[i] = int32(i)
		}
		key := func(p int32) EdgeKey { return KeyOf(v, int(nbrs[p]), ws[p]) }
		sort.SliceStable(pos, func(i, j int) bool { return key(pos[j]).Less(key(pos[i])) })
		order = append(order, pos...)
	}
	return order
}

func TestKeyOrderMatchesStableSortQuick(t *testing.T) {
	ties := 0
	check := func(seed int64) bool {
		g := randomRows(rand.New(rand.NewSource(seed)))
		got, want := g.KeyOrder(), keyOrderReference(g)
		if len(got) != len(want) {
			t.Logf("seed %d: %d entries, want %d", seed, len(got), len(want))
			return false
		}
		for k := range want {
			if got[k] != want[k] {
				t.Logf("seed %d: order[%d] = %d, want %d", seed, k, got[k], want[k])
				return false
			}
		}
		for v := 0; v < g.NumVertices(); v++ {
			nbrs := g.Neighbors(v)
			for i := 1; i < len(nbrs); i++ {
				if nbrs[i] == nbrs[i-1] && g.NeighborWeights(v)[i] == g.NeighborWeights(v)[i-1] {
					ties++
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if ties == 0 {
		t.Error("no input had two arcs of equal key: the position tie-break went untested")
	}
}

func TestKeyOrderEmptyGraph(t *testing.T) {
	if o := (&CSR{}).KeyOrder(); len(o) != 0 {
		t.Errorf("zero CSR: %d entries", len(o))
	}
	if o := NewBuilder(5).Build().KeyOrder(); len(o) != 0 {
		t.Errorf("edgeless graph: %d entries", len(o))
	}
}

// TestKeyOrderBuiltOnce has many goroutines ask a fresh graph for its
// index at once: all must get the one backing array (run under -race).
func TestKeyOrderBuiltOnce(t *testing.T) {
	n, edges := rmatEdges(12, 8, 7)
	g := FromEdges(n, edges)
	const callers = 16
	first := make([]*int32, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			first[i] = &g.KeyOrder()[0]
		}(i)
	}
	wg.Wait()
	for i, p := range first {
		if p != first[0] {
			t.Fatalf("caller %d got another backing array", i)
		}
	}
	want := keyOrderReference(g)
	for k, p := range g.KeyOrder() {
		if p != want[k] {
			t.Fatalf("order[%d] = %d, want %d", k, p, want[k])
		}
	}
}
