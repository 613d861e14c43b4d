// Package distgraph implements the paper's 1-D vertex-based graph
// distribution (§IV-A): each rank owns a contiguous block of vertices and
// every edge incident on them; endpoints owned by other ranks are "ghost"
// vertices. From the distribution it derives the distributed process
// graph topology (an edge between two ranks iff they share ghost
// vertices) and the statistics the paper reports about it: |Ep|, dmax,
// davg, sigma_d (Tables III, IV, VI) and the ghost-augmented edge counts
// |E'| (Table V).
package distgraph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
)

// Dist is a 1-D block distribution of a graph over P ranks.
type Dist struct {
	G      *graph.CSR
	P      int
	starts []int       // len P+1; rank r owns [starts[r], starts[r+1])
	locals []localSlot // Local's views, one per rank
}

// localSlot holds one rank's view, built once by Local.
type localSlot struct {
	once sync.Once
	l    *Local
}

// NewBlockDist distributes g's vertices over p equal (+-1) contiguous
// blocks, the paper's simple 1-D vertex-based partition.
func NewBlockDist(g *graph.CSR, p int) *Dist {
	if p < 1 {
		panic(fmt.Sprintf("distgraph: p = %d", p))
	}
	n := g.NumVertices()
	starts := make([]int, p+1)
	for r := 0; r <= p; r++ {
		starts[r] = r * n / p
	}
	return &Dist{G: g, P: p, starts: starts, locals: make([]localSlot, p)}
}

// blockKey keys SharedBlockDist's distributions in the graph's memo.
type blockKey struct{ p int }

// SharedBlockDist returns g's block distribution over p ranks, built by
// NewBlockDist on the first request for p and kept in the graph's memo
// (graph.CSR.Memo) for its lifetime, so every run over the same graph
// and rank count shares one distribution and, through Local, one view
// per rank: the paper's implementations precompute their distribution
// once, before the protocol runs (§IV-A, Fig 1).
func SharedBlockDist(g *graph.CSR, p int) *Dist {
	if p < 1 {
		panic(fmt.Sprintf("distgraph: p = %d", p))
	}
	return g.Memo(blockKey{p}, func() any { return NewBlockDist(g, p) }).(*Dist)
}

// Local returns rank r's view, built by BuildLocal on the first call for
// r and returned to every later one: ranks that ask at once each build
// their own, and a view is read-only once built.
func (d *Dist) Local(r int) *Local {
	if r < 0 || r >= d.P {
		panic(fmt.Sprintf("distgraph: Local(%d) with P=%d", r, d.P))
	}
	s := &d.locals[r]
	s.once.Do(func() { s.l = d.BuildLocal(r) })
	return s.l
}

// Owner returns the rank owning global vertex v.
func (d *Dist) Owner(v int) int {
	// starts is produced by r*n/p, so owner is found directly; guard the
	// boundary cases with a local search.
	n := d.G.NumVertices()
	if v < 0 || v >= n {
		panic(fmt.Sprintf("distgraph: Owner(%d) out of range [0,%d)", v, n))
	}
	r := 0
	if n > 0 {
		r = v * d.P / n
	}
	for d.starts[r+1] <= v {
		r++
	}
	for d.starts[r] > v {
		r--
	}
	return r
}

// Range returns rank r's owned vertex interval [lo, hi).
func (d *Dist) Range(r int) (lo, hi int) {
	return d.starts[r], d.starts[r+1]
}

// NumOwned returns how many vertices rank r owns.
func (d *Dist) NumOwned(r int) int {
	return d.starts[r+1] - d.starts[r]
}

// Local is one rank's view of the distribution: its vertex range, the
// process-graph neighborhood, and per-neighbor cross-edge (ghost) counts,
// precomputed exactly as the paper's implementations need them for buffer
// sizing and RMA displacement calculation (Fig 1). A view is read-only
// once built: Dist.Local shares one per rank among all runs.
type Local struct {
	Rank int
	P    int
	Lo   int // first owned vertex (global id)
	Hi   int // one past last owned vertex

	// NeighborRanks is the sorted list of ranks this rank shares ghost
	// vertices with: its adjacency in the distributed process graph.
	NeighborRanks []int
	// CrossArcs[i] is the number of local arcs whose far endpoint is
	// owned by NeighborRanks[i] — the per-neighbor ghost-edge count from
	// which communication buffers are sized (each cross edge produces at
	// most MaxMessagesPerCrossEdge messages in each direction).
	CrossArcs []int64
	// TotalCrossArcs is the sum of CrossArcs.
	TotalCrossArcs int64
	// LocalArcs is |E'| for this rank: all stored arcs, including those
	// to ghosts.
	LocalArcs int64

	// nbrIdx[q-nbrBase] is one more than rank q's position in
	// NeighborRanks, 0 if q is no neighbor, over the owners between the
	// lowest and the highest far endpoint.
	nbrBase int
	nbrIdx  []int32
	dist    *Dist
}

// BuildLocal computes rank r's local view: one pass over its arcs finds
// the owners they reach, a second counts cross arcs per owner into the
// view's neighbor index, which then takes each neighbor's position in
// place of its count, so a call costs its arcs, its degree and one
// zeroed index, not the world size. The index spans only the owners
// between the lowest and highest far endpoint (Owner is monotone): a
// few ranks on a spatial graph, at any P; at 4 B an owner, up to P on
// one whose edges reach everywhere.
func (d *Dist) BuildLocal(r int) *Local {
	if r < 0 || r >= d.P {
		panic(fmt.Sprintf("distgraph: BuildLocal(%d) with P=%d", r, d.P))
	}
	lo, hi := d.Range(r)
	arcs := d.G.Adj[d.G.Offsets[lo]:d.G.Offsets[hi]]
	if int64(len(arcs)) > math.MaxInt32 {
		panic(fmt.Sprintf("distgraph: rank %d holds %d arcs, more than its int32 counts hold", r, len(arcs)))
	}
	vmin, vmax := lo, hi-1
	for _, a := range arcs {
		vmin, vmax = min(vmin, int(a)), max(vmax, int(a))
	}
	base, span := 0, 0
	if len(arcs) > 0 {
		base = d.Owner(vmin)
		span = d.Owner(vmax) - base + 1
	}
	idx := make([]int32, span)
	var nbrs []int
	for _, a := range arcs {
		if int(a) < lo || int(a) >= hi {
			k := d.Owner(int(a)) - base
			if idx[k] == 0 {
				nbrs = append(nbrs, k+base)
			}
			idx[k]++
		}
	}
	slices.Sort(nbrs)
	l := &Local{
		Rank:          r,
		P:             d.P,
		Lo:            lo,
		Hi:            hi,
		NeighborRanks: nbrs,
		CrossArcs:     make([]int64, len(nbrs)),
		LocalArcs:     int64(len(arcs)),
		nbrBase:       base,
		nbrIdx:        idx,
		dist:          d,
	}
	for i, q := range nbrs {
		n := int64(idx[q-base])
		l.CrossArcs[i] = n
		l.TotalCrossArcs += n
		idx[q-base] = int32(i + 1)
	}
	return l
}

// Owns reports whether this rank owns global vertex v.
func (l *Local) Owns(v int) bool { return v >= l.Lo && v < l.Hi }

// Owner returns the owning rank of any global vertex.
func (l *Local) Owner(v int) int { return l.dist.Owner(v) }

// NumOwned returns the number of vertices this rank owns.
func (l *Local) NumOwned() int { return l.Hi - l.Lo }

// NeighborIndex returns the position of rank q in NeighborRanks, or -1:
// a bounds check and a load, on every buffered send.
func (l *Local) NeighborIndex(q int) int {
	if k := uint(q - l.nbrBase); k < uint(len(l.nbrIdx)) {
		return int(l.nbrIdx[k]) - 1
	}
	return -1
}

// Graph returns the underlying global CSR (each rank reads only rows of
// vertices it owns, per the owner-computes model).
func (l *Local) Graph() *graph.CSR { return l.dist.G }

// MemoryModelBytes estimates the bytes this rank holds for its share of
// the graph: CSR rows for owned vertices (offset + neighbor + weight per
// arc) plus per-vertex state. Used for Table VIII-style memory reports.
func (l *Local) MemoryModelBytes() int64 {
	return l.LocalArcs*(4+8) + int64(l.NumOwned())*(8+8)
}

// PGStats summarizes the distributed process graph, matching the
// notation of the paper's Tables III, IV and VI.
type PGStats struct {
	P      int
	Edges  int64 // |Ep|
	DMax   int   // dmax
	DMin   int
	DAvg   float64 // davg
	DSigma float64 // sigma_d
}

func (s PGStats) String() string {
	return fmt.Sprintf("p=%d |Ep|=%d dmax=%d davg=%.2f sigma_d=%.2f", s.P, s.Edges, s.DMax, s.DAvg, s.DSigma)
}

// ProcessGraph returns each rank's process-graph adjacency (sorted).
func (d *Dist) ProcessGraph() [][]int {
	adj := make([]map[int]struct{}, d.P)
	for r := range adj {
		adj[r] = make(map[int]struct{})
	}
	for r := 0; r < d.P; r++ {
		lo, hi := d.Range(r)
		for v := lo; v < hi; v++ {
			for _, a := range d.G.Neighbors(v) {
				if int(a) < lo || int(a) >= hi {
					q := d.Owner(int(a))
					adj[r][q] = struct{}{}
					adj[q][r] = struct{}{}
				}
			}
		}
	}
	out := make([][]int, d.P)
	for r := range adj {
		for q := range adj[r] {
			out[r] = append(out[r], q)
		}
		sort.Ints(out[r])
	}
	return out
}

// ProcessGraphStats computes PGStats for the distribution.
func (d *Dist) ProcessGraphStats() PGStats {
	pg := d.ProcessGraph()
	st := PGStats{P: d.P, DMin: math.MaxInt}
	var sum, sumSq float64
	for _, nbrs := range pg {
		deg := len(nbrs)
		st.Edges += int64(deg)
		if deg > st.DMax {
			st.DMax = deg
		}
		if deg < st.DMin {
			st.DMin = deg
		}
		sum += float64(deg)
		sumSq += float64(deg) * float64(deg)
	}
	st.Edges /= 2
	st.DAvg = sum / float64(d.P)
	if v := sumSq/float64(d.P) - st.DAvg*st.DAvg; v > 0 {
		st.DSigma = math.Sqrt(v)
	}
	if st.DMin == math.MaxInt {
		st.DMin = 0
	}
	return st
}

// EPrimeStats reports the ghost-augmented per-rank edge counts |E'| the
// paper uses in Table V to quantify reordering's effect on balance.
type EPrimeStats struct {
	P     int
	Total int64   // sum over ranks of local arcs
	Max   int64   // |E'|max
	Avg   float64 // |E'|avg
	Sigma float64 // sigma_|E'|
}

func (s EPrimeStats) String() string {
	return fmt.Sprintf("p=%d |E'|=%d |E'|max=%d |E'|avg=%.0f sigma=%.0f", s.P, s.Total, s.Max, s.Avg, s.Sigma)
}

// GhostEdgeStats computes EPrimeStats for the distribution.
func (d *Dist) GhostEdgeStats() EPrimeStats {
	st := EPrimeStats{P: d.P}
	var sum, sumSq float64
	for r := 0; r < d.P; r++ {
		lo, hi := d.Range(r)
		arcs := d.G.Offsets[hi] - d.G.Offsets[lo]
		st.Total += arcs
		if arcs > st.Max {
			st.Max = arcs
		}
		sum += float64(arcs)
		sumSq += float64(arcs) * float64(arcs)
	}
	st.Avg = sum / float64(d.P)
	if v := sumSq/float64(d.P) - st.Avg*st.Avg; v > 0 {
		st.Sigma = math.Sqrt(v)
	}
	return st
}
