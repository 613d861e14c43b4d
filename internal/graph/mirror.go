package graph

import "fmt"

// Mirror returns the graph's reverse-arc index: one []int32 the length
// of NumArcs() where, for the arc u→v at Adj index a, mirror[a] is the
// position of u in v's row, so Adj[Offsets[v]+int64(mirror[a])] == u.
// A sender that holds arc a can so name the arc its record arrives on,
// and the receiver finds it without searching v's row. Parallel arcs
// pair in row order (the k-th u→v with the k-th v→u) and a self loop is
// its own mirror.
//
// Like KeyOrder, the index belongs to the graph: built on the first
// call in one pass over the arcs, kept for the graph's lifetime at
// 4 B/arc, and returned read-only to every later caller, from any
// goroutine. It panics on an asymmetric graph or one whose rows are not
// sorted, which have no mirror.
func (g *CSR) Mirror() []int32 {
	return g.Memo(mirrorIndex, func() any { return g.buildMirror() }).([]int32)
}

// buildMirror walks the rows in vertex order with one cursor per
// vertex. Rows are sorted, so the arcs into v arrive in the order of
// v's row, and v's cursor is the position of each arc's source there.
func (g *CSR) buildMirror() []int32 {
	n := g.NumVertices()
	mirror := make([]int32, g.NumArcs())
	next := make([]int32, n)
	for u := 0; u < n; u++ {
		for a := g.Offsets[u]; a < g.Offsets[u+1]; a++ {
			v := g.Adj[a]
			at := g.Offsets[v] + int64(next[v])
			if at >= g.Offsets[v+1] || g.Adj[at] != int32(u) {
				panic(fmt.Sprintf("graph: Mirror: arc %d->%d has no reverse arc in row order", u, v))
			}
			mirror[a] = next[v]
			next[v]++
		}
	}
	return mirror
}
