// Package graph provides the in-memory graph representation shared by the
// matching and BFS codes: undirected, edge-weighted graphs in Compressed
// Sparse Row (CSR) form, plus builders, statistics, permutation and a
// simple binary serialization.
//
// Vertices are dense integers in [0, N). An undirected edge {u,v} is
// stored twice (u's row holds v and vice versa), as in the paper's
// distribution (§IV-A), so CSR.NumArcs() == 2 * CSR.NumEdges() for simple
// graphs without self loops.
package graph

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
)

// CSR is an undirected weighted graph in compressed sparse row format.
// The zero value is an empty graph.
//
// A CSR is immutable once Build or Read has returned it: every reader —
// the distribution, the engines of every simulated rank, the verifiers —
// shares the three slices without synchronisation, and KeyOrder, Mirror
// and Memo cache values derived from them that are themselves shared and
// read-only. Code that needs a different graph builds a new one (Permute
// does). A CSR must not be copied by value after first use (it holds
// a sync.Map).
type CSR struct {
	// Offsets has length NumVertices()+1; vertex v's arcs occupy
	// Adj[Offsets[v]:Offsets[v+1]] with parallel Weights.
	Offsets []int64
	// Adj holds neighbor vertex ids.
	Adj []int32
	// Weights holds the edge weight for each arc. Both arcs of one
	// undirected edge carry the same weight.
	Weights []float64

	// memo holds the values derived from the graph on first request
	// (Memo): the KeyOrder and Mirror indexes and other packages'
	// values. They live and die with the graph.
	memo sync.Map // key → *memoEntry
}

// memoEntry is one Memo value, built once.
type memoEntry struct {
	once sync.Once
	v    any
}

// Memo returns the value derived from the graph under key, calling
// build on the first request for the key and returning that value to
// every later one, from any goroutine; concurrent first requests wait
// for the one build. Values live and die with the graph, so they must
// be read-only like it. Keys should be of a type the deriving package
// owns, so packages cannot collide.
func (g *CSR) Memo(key any, build func() any) any {
	e, ok := g.memo.Load(key)
	if !ok {
		e, _ = g.memo.LoadOrStore(key, new(memoEntry))
	}
	m := e.(*memoEntry)
	m.once.Do(func() { m.v = build() })
	return m.v
}

// index keys the graph's own derived indexes in its memo.
type index int

const (
	keyOrderIndex index = iota
	mirrorIndex
)

// NumVertices returns the number of vertices.
func (g *CSR) NumVertices() int {
	if len(g.Offsets) == 0 {
		return 0
	}
	return len(g.Offsets) - 1
}

// NumArcs returns the number of stored directed arcs (twice the edge
// count for a simple undirected graph).
func (g *CSR) NumArcs() int64 { return int64(len(g.Adj)) }

// NumEdges returns the number of undirected edges, counting self loops
// once.
func (g *CSR) NumEdges() int64 {
	return edgesFromLoops(g.NumArcs(), g.countLoops(0, g.NumVertices()))
}

// countLoops counts self arcs in rows [lo,hi) with one flat walk over
// Adj — no per-vertex Neighbors slicing. Summary reuses it per span.
func (g *CSR) countLoops(lo, hi int) int64 {
	var loops int64
	for v := lo; v < hi; v++ {
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			if g.Adj[k] == int32(v) {
				loops++
			}
		}
	}
	return loops
}

// edgesFromLoops converts an arc count to an undirected edge count:
// every non-loop edge is stored as two arcs, every self loop as one.
func edgesFromLoops(arcs, loops int64) int64 {
	return (arcs-loops)/2 + loops
}

// Degree returns the number of arcs out of v.
func (g *CSR) Degree(v int) int {
	return int(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns v's adjacency slice (shared storage; do not mutate).
func (g *CSR) Neighbors(v int) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v).
func (g *CSR) NeighborWeights(v int) []float64 {
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// SearchNeighbor binary-searches u's row (the builder sorts it) for v:
// its position in Neighbors(u), or where v would be inserted, and whether
// the arc u->v exists. Hand-rolled because it runs once per received
// record in the engines and once per look-up in tally and Verify: a
// sort.Search closure's indirect call costs more than the compare.
func (g *CSR) SearchNeighbor(u, v int) (int, bool) {
	nbrs := g.Neighbors(u)
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nbrs) && nbrs[lo] == int32(v)
}

// HasEdge reports whether the arc u->v exists.
func (g *CSR) HasEdge(u, v int) bool {
	_, ok := g.SearchNeighbor(u, v)
	return ok
}

// EdgeWeight returns the weight of arc u->v; ok is false if absent.
func (g *CSR) EdgeWeight(u, v int) (w float64, ok bool) {
	if i, ok := g.SearchNeighbor(u, v); ok {
		return g.NeighborWeights(u)[i], true
	}
	return 0, false
}

// Validate checks structural invariants: monotone offsets, in-range
// neighbor ids, sorted rows, and symmetry (u in Adj[v] iff v in Adj[u]
// with equal weights). Both phases fan out over vertex ranges; the
// violation at the lowest vertex of the failing phase is returned, as in
// the serial scan.
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.Offsets) > 0 && g.Offsets[0] != 0 {
		return fmt.Errorf("graph: Offsets[0] = %d, want 0", g.Offsets[0])
	}
	if len(g.Adj) != len(g.Weights) {
		return fmt.Errorf("graph: len(Adj)=%d != len(Weights)=%d", len(g.Adj), len(g.Weights))
	}
	// Structure phase: every row's offsets guard its own slicing, so
	// spans are independently safe even on corrupt inputs.
	if err := g.firstError(n, func(v int) error {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph: Offsets not monotone at %d", v)
		}
		if g.Offsets[v] < 0 || g.Offsets[v+1] > int64(len(g.Adj)) {
			return fmt.Errorf("graph: Offsets[%d..%d] = [%d,%d] outside Adj of %d entries",
				v, v+1, g.Offsets[v], g.Offsets[v+1], len(g.Adj))
		}
		nbrs := g.Neighbors(v)
		for i, a := range nbrs {
			if a < 0 || int(a) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, a)
			}
			if i > 0 && nbrs[i-1] >= a {
				return fmt.Errorf("graph: vertex %d row not strictly sorted at position %d", v, i)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if len(g.Offsets) > 0 && int(g.Offsets[n]) != len(g.Adj) {
		return fmt.Errorf("graph: Offsets[n]=%d != len(Adj)=%d", g.Offsets[n], len(g.Adj))
	}
	// Symmetry phase: runs only on structurally sound graphs, so the
	// binary searches cannot index out of range.
	return g.firstError(n, func(v int) error {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if int(a) == v {
				continue
			}
			w, ok := g.EdgeWeight(int(a), v)
			if !ok {
				return fmt.Errorf("graph: edge %d->%d has no reverse arc", v, a)
			}
			if w != ws[i] {
				return fmt.Errorf("graph: edge {%d,%d} weight mismatch: %g vs %g", v, a, ws[i], w)
			}
		}
		return nil
	})
}

// firstError runs check over all vertices in parallel spans and returns
// the error of the lowest-vertex violation (spans stop at their first
// hit; span order recovers global order).
func (g *CSR) firstError(n int, check func(v int) error) error {
	spans := par.Split(n, vertexGrain)
	errs := make([]error, len(spans))
	par.Do(spans, func(si, lo, hi int) {
		for v := lo; v < hi; v++ {
			if err := check(v); err != nil {
				errs[si] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *CSR) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree.
func (g *CSR) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(g.NumVertices())
}

// Bandwidth returns the matrix bandwidth of the adjacency structure: the
// maximum |u-v| over all edges. RCM reordering aims to reduce it
// (paper §V-C).
func (g *CSR) Bandwidth() int {
	bw := 0
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Neighbors(v) {
			if d := v - int(a); d > bw {
				bw = d
			} else if -d > bw {
				bw = -d
			}
		}
	}
	return bw
}

// Profile returns the envelope size: sum over rows of (v - min neighbor)
// for rows with at least one neighbor below v; a finer-grained measure of
// how tightly the structure hugs the diagonal than Bandwidth.
func (g *CSR) Profile() int64 {
	var p int64
	for v := 0; v < g.NumVertices(); v++ {
		min := v
		for _, a := range g.Neighbors(v) {
			if int(a) < min {
				min = int(a)
			}
		}
		p += int64(v - min)
	}
	return p
}

// Permute relabels vertices: newID = perm[oldID]. It returns a new
// graph; perm must be a permutation of [0,N). The relabeling is direct
// CSR-to-CSR — each old row lands as one new row, in parallel over
// vertex ranges, with a per-row sort restoring neighbor order — instead
// of a round trip through the edge-list builder. Self loops (possible
// only in hand-decoded graphs) are dropped, as the builder path did.
func (g *CSR) Permute(perm []int) *CSR {
	n := g.NumVertices()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: Permute: len(perm)=%d, want %d", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic(fmt.Sprintf("graph: Permute: perm is not a permutation of [0,%d)", n))
		}
		seen[p] = true
	}
	ng := &CSR{Offsets: make([]int64, n+1)}
	// New row widths: perm is a bijection, so writes are disjoint.
	par.Ranges(n, vertexGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			d := int64(0)
			for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
				if g.Adj[k] != int32(v) {
					d++
				}
			}
			ng.Offsets[perm[v]+1] = d
		}
	})
	for v := 0; v < n; v++ {
		ng.Offsets[v+1] += ng.Offsets[v]
	}
	ng.Adj = make([]int32, ng.Offsets[n])
	ng.Weights = make([]float64, ng.Offsets[n])
	par.Ranges(n, vertexGrain, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			o := ng.Offsets[perm[v]]
			i := int64(0)
			for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
				if a := g.Adj[k]; a != int32(v) {
					ng.Adj[o+i] = int32(perm[a])
					ng.Weights[o+i] = g.Weights[k]
					i++
				}
			}
			sortArcs(ng.Adj[o:o+i], ng.Weights[o:o+i])
		}
	})
	return ng
}

// Stats bundles summary statistics for reporting.
type Stats struct {
	Vertices  int
	Edges     int64
	MaxDeg    int
	AvgDeg    float64
	SigmaDeg  float64
	Bandwidth int
	MinW      float64
	MaxW      float64
}

// Summary computes Stats in one parallel pass over vertex ranges. Each
// span reads its rows once — degree comes straight off Offsets (the old
// code called Degree three times per vertex), bandwidth, weight extrema
// and the self-loop count for the edge total (the NumEdges identity,
// via countLoops per span) all ride the same walk — and the span
// partials merge exactly.
func (g *CSR) Summary() Stats {
	n := g.NumVertices()
	st := Stats{Vertices: n, MinW: math.Inf(1), MaxW: math.Inf(-1)}
	type partial struct {
		sum, sumSq float64
		maxDeg, bw int
		loops      int64
		minW, maxW float64
	}
	spans := par.Split(n, vertexGrain)
	parts := make([]partial, len(spans))
	par.Do(spans, func(si, lo, hi int) {
		p := partial{minW: math.Inf(1), maxW: math.Inf(-1)}
		for v := lo; v < hi; v++ {
			d := g.Offsets[v+1] - g.Offsets[v]
			p.sum += float64(d)
			p.sumSq += float64(d) * float64(d)
			if int(d) > p.maxDeg {
				p.maxDeg = int(d)
			}
			for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
				if s := v - int(g.Adj[k]); s > p.bw {
					p.bw = s
				} else if -s > p.bw {
					p.bw = -s
				}
				w := g.Weights[k]
				if w < p.minW {
					p.minW = w
				}
				if w > p.maxW {
					p.maxW = w
				}
			}
		}
		p.loops = g.countLoops(lo, hi)
		parts[si] = p
	})
	var sum, sumSq float64
	var loops int64
	for _, p := range parts {
		sum += p.sum
		sumSq += p.sumSq
		loops += p.loops
		if p.maxDeg > st.MaxDeg {
			st.MaxDeg = p.maxDeg
		}
		if p.bw > st.Bandwidth {
			st.Bandwidth = p.bw
		}
		if p.minW < st.MinW {
			st.MinW = p.minW
		}
		if p.maxW > st.MaxW {
			st.MaxW = p.maxW
		}
	}
	st.Edges = edgesFromLoops(g.NumArcs(), loops)
	if len(g.Weights) == 0 {
		st.MinW, st.MaxW = 0, 0
	}
	if n > 0 {
		st.AvgDeg = sum / float64(n)
		variance := sumSq/float64(n) - st.AvgDeg*st.AvgDeg
		if variance > 0 {
			st.SigmaDeg = math.Sqrt(variance)
		}
	}
	return st
}

func (st Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d dmax=%d davg=%.2f sigma=%.2f bw=%d w=[%.3g,%.3g]",
		st.Vertices, st.Edges, st.MaxDeg, st.AvgDeg, st.SigmaDeg, st.Bandwidth, st.MinW, st.MaxW)
}
