package graph

import (
	"fmt"

	"repro/internal/par"
)

// Edge is one undirected weighted edge for builder input.
type Edge struct {
	U, V int
	W    float64
}

// Builder accumulates undirected edges and produces a CSR. Duplicate
// edges are merged keeping the maximum weight (the convention used by the
// SuiteSparse-derived matching literature); self loops are dropped, since
// a matching can never use them.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBuilder(%d): negative size", n))
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u,v} with weight w. Order of u,v
// is irrelevant. Self loops are silently ignored.
func (b *Builder) AddEdge(u, v int, w float64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// UseEdges adopts es as the builder's edge list without copying — the
// bulk path the parallel generators use after writing samples directly
// into a preallocated slice. Endpoints are range-checked here; unlike
// AddEdge, entries need not be canonicalized: Build swaps U>V pairs and
// drops U==V self loops itself, so generators may leave dead samples as
// self loops. The builder owns es afterwards.
func (b *Builder) UseEdges(es []Edge) {
	for k := range es {
		e := &es[k]
		if e.U < 0 || e.U >= b.n || e.V < 0 || e.V >= b.n {
			panic(fmt.Sprintf("graph: UseEdges: edge {%d,%d} out of range [0,%d)", e.U, e.V, b.n))
		}
	}
	b.edges = es
}

// Grain sizes for the parallel ingest passes: coarse enough that span
// bookkeeping is noise, fine enough that real inputs fan out.
const (
	edgeGrain   = 8192
	vertexGrain = 1024
)

// Build produces the CSR with a parallel LSD radix sort over the arcs,
// O(m) with no comparison sort anywhere: (1) per-span per-vertex arc
// counts, (2) placement into rows — which, read arcs-as-(dst, src), is
// exactly the arcs sorted by destination — (3) a stable counting
// scatter of that sequence by source, after which every row is sorted
// by neighbor, then a max-weight dedup scan and a final compaction to
// the deduplicated offsets. Every pass fans out over par.Workers().
//
// The result is a pure function of the edge *multiset* — duplicate
// (src, dst) arcs land adjacently in span-dependent order, but the
// commutative max-weight merge erases it — so the CSR is bit-identical
// for any GOMAXPROCS, and bit-identical to the serial global-sort
// reference the property suite keeps (builder_serial_test.go). The
// builder may be reused afterwards; Build does not clear it.
func (b *Builder) Build() *CSR {
	n, m := b.n, len(b.edges)
	g := &CSR{Offsets: make([]int64, n+1), Adj: []int32{}, Weights: []float64{}}
	if m == 0 || n == 0 {
		return g
	}

	// Pass 1: per-span arc counts per vertex. Self loops are dropped;
	// both endpoints of every other edge count one arc.
	spans := par.Split(m, edgeGrain)
	w := len(spans)
	cnt := make([]int32, w*n)
	par.Do(spans, func(si, lo, hi int) {
		c := cnt[si*n : si*n+n]
		for k := lo; k < hi; k++ {
			e := &b.edges[k]
			if e.U == e.V {
				continue
			}
			c[e.U]++
			c[e.V]++
		}
	})

	// Turn the counts into per-span write bases: for each vertex, an
	// exclusive prefix across spans (so span si writes its arcs for v at
	// poff[v]+cnt[si*n+v]...), and the duplicate-inclusive row width into
	// the provisional offsets.
	poff := make([]int64, n+1)
	par.Ranges(n, vertexGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var s int32
			for si := 0; si < w; si++ {
				c := &cnt[si*n+v]
				s, *c = s+*c, s
			}
			poff[v+1] = int64(s)
		}
	})
	for v := 0; v < n; v++ {
		poff[v+1] += poff[v]
	}

	// Pass 2: placement with duplicates, same span partition as pass 1
	// so the per-span bases line up. Row u of tmp holds u's neighbors in
	// arbitrary order — equivalently, reading the rows in order, tmp is
	// the arc sequence (dst=u, src=tmpAdj[i]) sorted by destination: the
	// first key pass of an LSD radix sort by (src, dst).
	tmpAdj := make([]int32, poff[n])
	tmpWts := make([]float64, poff[n])
	par.Do(spans, func(si, lo, hi int) {
		c := cnt[si*n : si*n+n]
		for k := lo; k < hi; k++ {
			e := &b.edges[k]
			u, v := e.U, e.V
			if u == v {
				continue
			}
			i := poff[u] + int64(c[u])
			c[u]++
			tmpAdj[i], tmpWts[i] = int32(v), e.W
			j := poff[v] + int64(c[v])
			c[v]++
			tmpAdj[j], tmpWts[j] = int32(u), e.W
		}
	})

	// Pass 3: stable counting scatter of the dst-sorted arc sequence by
	// source — the second radix pass. Stability preserves the ascending
	// destination order within each source row, so rows come out sorted
	// by neighbor with no comparison sort. The graph is symmetric, so
	// per-source row widths equal the pass-1 widths and poff serves as
	// the base offsets again; only the per-span sub-counts are new.
	vspans := par.Split(n, vertexGrain)
	w2 := len(vspans)
	cnt2 := make([]int32, w2*n)
	par.Do(vspans, func(si, lo, hi int) {
		c := cnt2[si*n : si*n+n]
		for i := poff[lo]; i < poff[hi]; i++ {
			c[tmpAdj[i]]++
		}
	})
	par.Ranges(n, vertexGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var s int32
			for si := 0; si < w2; si++ {
				c := &cnt2[si*n+v]
				s, *c = s+*c, s
			}
		}
	})
	adj := make([]int32, poff[n])
	wts := make([]float64, poff[n])
	par.Do(vspans, func(si, lo, hi int) {
		c := cnt2[si*n : si*n+n]
		for v := lo; v < hi; v++ {
			for i := poff[v]; i < poff[v+1]; i++ {
				s := tmpAdj[i]
				j := poff[s] + int64(c[s])
				c[s]++
				adj[j], wts[j] = int32(v), tmpWts[i]
			}
		}
	})

	// Pass 4: max-weight dedup, in place. Duplicate (src, dst) arcs are
	// adjacent now; their relative order still depends on the pass-2
	// span partition, but max is commutative, so the compacted row is a
	// pure function of the multiset.
	uniq := make([]int32, n)
	par.Ranges(n, vertexGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			ra := adj[poff[v]:poff[v+1]]
			rw := wts[poff[v]:poff[v+1]]
			k := 0
			for i := range ra {
				if k > 0 && ra[k-1] == ra[i] {
					if rw[i] > rw[k-1] {
						rw[k-1] = rw[i]
					}
					continue
				}
				ra[k], rw[k] = ra[i], rw[i]
				k++
			}
			uniq[v] = int32(k)
		}
	})

	// Final offsets over the deduplicated widths, then compact.
	for v := 0; v < n; v++ {
		g.Offsets[v+1] = g.Offsets[v] + int64(uniq[v])
	}
	g.Adj = make([]int32, g.Offsets[n])
	g.Weights = make([]float64, g.Offsets[n])
	par.Ranges(n, vertexGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			o, k := g.Offsets[v], int64(uniq[v])
			copy(g.Adj[o:o+k], adj[poff[v]:])
			copy(g.Weights[o:o+k], wts[poff[v]:])
		}
	})
	return g
}

// FromEdges is a convenience constructor.
func FromEdges(n int, edges []Edge) *CSR {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build()
}

// EdgeList returns each undirected edge once, in (U,V) sorted order.
func (g *CSR) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumArcs()/2)
	for v := 0; v < g.NumVertices(); v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if int(a) > v {
				out = append(out, Edge{U: v, V: int(a), W: ws[i]})
			}
		}
	}
	return out
}
