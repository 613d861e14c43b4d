package graph

import "sort"

// buildSerial is the serial reference for Build: the original
// global-sort construction (O(m log m) with interface comparators). The
// property suite asserts the parallel Build is bit-identical to it on
// arbitrary edge lists; it lives in a test file so the shipped builder
// has one path.
func (b *Builder) buildSerial() *CSR {
	// AddEdge canonicalizes eagerly, UseEdges defers to Build; normalize
	// here so the reference accepts both input forms.
	canon := make([]Edge, 0, len(b.edges))
	for _, e := range b.edges {
		if e.U == e.V {
			continue
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		canon = append(canon, e)
	}
	// Dedup on canonicalized (u,v), keeping max weight.
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].U != canon[j].U {
			return canon[i].U < canon[j].U
		}
		return canon[i].V < canon[j].V
	})
	uniq := canon[:0:0]
	for _, e := range canon {
		if k := len(uniq) - 1; k >= 0 && uniq[k].U == e.U && uniq[k].V == e.V {
			if e.W > uniq[k].W {
				uniq[k].W = e.W
			}
			continue
		}
		uniq = append(uniq, e)
	}

	deg := make([]int64, b.n+1)
	for _, e := range uniq {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < b.n; i++ {
		deg[i+1] += deg[i]
	}
	g := &CSR{
		Offsets: deg,
		Adj:     make([]int32, deg[b.n]),
		Weights: make([]float64, deg[b.n]),
	}
	cursor := make([]int64, b.n)
	copy(cursor, deg[:b.n])
	place := func(u, v int, w float64) {
		g.Adj[cursor[u]] = int32(v)
		g.Weights[cursor[u]] = w
		cursor[u]++
	}
	for _, e := range uniq {
		place(e.U, e.V, e.W)
		place(e.V, e.U, e.W)
	}
	// Rows were filled in (U,V)-sorted edge order: U-side entries arrive
	// sorted, V-side entries may interleave, so sort each row.
	for v := 0; v < b.n; v++ {
		lo, hi := g.Offsets[v], g.Offsets[v+1]
		row := rowSorter{adj: g.Adj[lo:hi], w: g.Weights[lo:hi]}
		sort.Sort(row)
	}
	return g
}

type rowSorter struct {
	adj []int32
	w   []float64
}

func (r rowSorter) Len() int           { return len(r.adj) }
func (r rowSorter) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r rowSorter) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}
