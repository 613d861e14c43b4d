// Package matching implements half-approximate maximum weight graph
// matching — the paper's case-study application — in serial and in
// distributed memory under four MPI communication models:
//
//   - NSR: nonblocking point-to-point Send-Recv (the paper's baseline),
//   - RMA: MPI-3 passive-target one-sided puts with precomputed remote
//     displacements and per-round neighborhood count exchanges,
//   - NCL: blocking MPI-3 neighborhood collectives with per-neighbor
//     message aggregation,
//   - MBP: a MatchBox-P-style synchronous-mode Send-Recv baseline.
//
// All variants parallelize the Manne-Bisseling locally-dominant
// algorithm: vertices point at their heaviest available neighbor, a
// mutually-pointing pair is matched, and neighbors of matched vertices
// re-point until no edges remain. Ties are broken by a hash of endpoint
// ids (graph.KeyOf), giving a strict total order under which the
// locally-dominant matching is unique — every variant must therefore
// produce exactly the serial matching, which the test suite exploits.
package matching

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Result describes a matching.
type Result struct {
	// Mate[v] is v's partner, or -1 if v is unmatched. Vertex ids are
	// int32, as in the CSR's adjacency.
	Mate []int32
	// Weight is the sum of matched edge weights.
	Weight float64
	// Cardinality is the number of matched edges.
	Cardinality int
}

// NewResult assembles a Result from a mate vector, computing weight and
// cardinality. It panics if mate is not a valid matching of g (see
// Verify, which reports the same conditions as errors).
func NewResult(g *graph.CSR, mate []int32) *Result {
	weight, card, err := tally(g, mate)
	if err != nil {
		panic(err)
	}
	return &Result{Mate: mate, Weight: weight, Cardinality: card}
}

// Verify checks that r is a valid matching of g: every mate is in range
// and not the vertex itself, the mate relation is symmetric, every
// matched pair is an edge, and the recorded weight and cardinality are
// consistent. Of several violations the one at the lowest vertex is
// reported.
func Verify(g *graph.CSR, r *Result) error {
	weight, card, err := tally(g, r.Mate)
	if err != nil {
		return err
	}
	if card != r.Cardinality {
		return fmt.Errorf("matching: cardinality %d recorded, %d actual", r.Cardinality, card)
	}
	if d := weight - r.Weight; d > 1e-6 || d < -1e-6 {
		return fmt.Errorf("matching: weight %g recorded, %g actual", r.Weight, weight)
	}
	return nil
}

// tally validates a mate vector against g and returns the weight and
// cardinality of the matching it describes. One serial pass in vertex
// order checks each entry and searches each matched edge once, from its
// lower endpoint, adding its weight there: the CSR is symmetric
// (graph.Validate), so the arc back exists iff this one does, and the
// error is the first a scan meets.
func tally(g *graph.CSR, mate []int32) (weight float64, card int, err error) {
	n := g.NumVertices()
	if len(mate) != n {
		return 0, 0, fmt.Errorf("matching: mate vector has %d entries for %d vertices", len(mate), n)
	}
	for v, m := range mate {
		u := int(m)
		switch {
		case u == -1:
		case u < 0 || u >= n:
			return 0, 0, fmt.Errorf("matching: vertex %d matched to out-of-range %d", v, u)
		case u == v:
			return 0, 0, fmt.Errorf("matching: vertex %d matched to itself", v)
		case int(mate[u]) != v:
			return 0, 0, fmt.Errorf("matching: asymmetric mates: %d->%d but %d->%d", v, u, u, mate[u])
		case u > v:
			w, ok := g.EdgeWeight(v, u)
			if !ok {
				return 0, 0, fmt.Errorf("matching: matched pair {%d,%d} is not an edge", v, u)
			}
			weight += w
			card++
		}
	}
	return weight, card, nil
}

// VerifyMaximal checks that r is a valid matching of g with no
// augmentable edge: every edge has at least one matched endpoint. This
// is the correctness contract of the asynchronous maximal engine —
// *which* maximal matching emerges is schedule-dependent, but
// maximality never is.
func VerifyMaximal(g *graph.CSR, r *Result) error {
	if err := Verify(g, r); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if r.Mate[v] >= 0 {
			continue
		}
		for _, a := range g.Neighbors(v) {
			if int(a) != v && r.Mate[a] < 0 {
				return fmt.Errorf("matching: edge {%d,%d} has both endpoints free — not maximal", v, a)
			}
		}
	}
	return nil
}

// VerifyLocallyDominant checks the property that makes a matching
// half-approximate: every edge of the graph is dominated — at least one
// endpoint is matched to an edge of greater-or-equal total-order key.
// All locally-dominant matchings satisfy this; a matching that satisfies
// it has weight at least half the maximum (Preis 1999).
func VerifyLocallyDominant(g *graph.CSR, r *Result) error {
	if err := Verify(g, r); err != nil {
		return err
	}
	matchKey := make([]graph.EdgeKey, g.NumVertices())
	hasKey := make([]bool, g.NumVertices())
	for v, m := range r.Mate {
		if u := int(m); u >= 0 {
			w, _ := g.EdgeWeight(v, u)
			matchKey[v] = graph.KeyOf(v, u, w)
			hasKey[v] = true
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if int(a) <= v { // each edge once; a self loop dominates nothing
				continue
			}
			k := graph.KeyOf(v, int(a), ws[i])
			uOK := hasKey[v] && !matchKey[v].Less(k)
			vOK := hasKey[a] && !matchKey[a].Less(k)
			if !uOK && !vOK {
				return fmt.Errorf("matching: edge {%d,%d} (w=%g) dominates both endpoints' matches — not locally dominant", v, a, ws[i])
			}
		}
	}
	return nil
}

// Serial computes the locally-dominant half-approximate matching with
// the pointer-based algorithm of Manne & Bisseling (paper Algorithm 2):
// every vertex points at its heaviest available neighbor, mutually
// pointing pairs match, and neighbors of newly matched or exhausted
// vertices re-point. Runs in O(|E| log dmax) expected time on a graph
// asked for the first time and O(|E|) afterwards: the sorted adjacency
// is the graph's own index (graph.CSR.KeyOrder), shared with the
// distributed engines.
func Serial(g *graph.CSR) *Result {
	n := g.NumVertices()
	sorted := g.KeyOrder()
	ptr := make([]int32, n)
	cand := make([]int32, n)
	state := make([]uint8, n) // 0 unmatched, 1 matched, 2 dead
	mate := make([]int32, n)
	for i := range cand {
		cand[i] = -1
		mate[i] = -1
	}
	const (
		unmatched = 0
		matched   = 1
		dead      = 2
	)

	work := make([]int32, 0, n)
	// repoint pushes neighbors of v that currently point at v.
	repoint := func(v int32) {
		for _, a := range g.Neighbors(int(v)) {
			if state[a] == unmatched && cand[a] == v {
				work = append(work, a)
			}
		}
	}
	process := func(v int32) {
		if state[v] != unmatched {
			return
		}
		// Idempotent: current candidate still available?
		if cand[v] >= 0 && state[cand[v]] == unmatched {
			return
		}
		rlo := g.Offsets[v]
		row := g.Neighbors(int(v))
		for ptr[v] < int32(len(row)) {
			u := row[sorted[rlo+int64(ptr[v])]]
			if u != v && state[u] == unmatched { // a self loop is never a candidate
				break
			}
			ptr[v]++
		}
		if ptr[v] == int32(len(row)) {
			cand[v] = -1
			state[v] = dead
			repoint(v)
			return
		}
		u := row[sorted[rlo+int64(ptr[v])]]
		cand[v] = u
		if cand[u] == v {
			state[v], state[u] = matched, matched
			mate[v], mate[u] = u, v
			repoint(v)
			repoint(u)
		}
	}

	for v := int32(0); v < int32(n); v++ {
		work = append(work, v)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			process(x)
		}
	}
	return NewResult(g, mate)
}

// Greedy computes the matching produced by sorting all edges by
// decreasing key and taking each edge whose endpoints are both free.
// Under a strict total order on edge keys, the greedy matching and the
// locally-dominant matching coincide (Preis 1999) — the test suite uses
// this as an independent oracle for Serial and all parallel variants.
func Greedy(g *graph.CSR) *Result {
	type keyed struct {
		u, v int32
		key  graph.EdgeKey
	}
	edges := make([]keyed, 0, g.NumArcs()/2)
	for v := 0; v < g.NumVertices(); v++ {
		ws := g.NeighborWeights(v)
		for i, a := range g.Neighbors(v) {
			if int(a) > v {
				edges = append(edges, keyed{int32(v), a, graph.KeyOf(v, int(a), ws[i])})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[j].key.Less(edges[i].key) })
	mate := make([]int32, g.NumVertices())
	for i := range mate {
		mate[i] = -1
	}
	for _, e := range edges {
		if mate[e.u] == -1 && mate[e.v] == -1 {
			mate[e.u], mate[e.v] = e.v, e.u
		}
	}
	return NewResult(g, mate)
}
