package graph

import "repro/internal/par"

// keyOrderGrain is the vertex-span grain for the parallel key-order sort.
const keyOrderGrain = 512

// KeyOrder returns the graph's key-sorted adjacency index: one []int32
// the length of NumArcs() where order[Offsets[v]:Offsets[v+1]] holds
// vertex v's arc positions (0-based within the CSR row) ordered by
// decreasing edge key (KeyOf) — the heaviest available neighbor is found
// by a monotone pointer scan. Ties on the (astronomically unlikely) equal
// key fall back to ascending row position, so the index is fully
// deterministic.
//
// The edge order is a preprocessing of the input, not of an algorithm
// instance (Birn et al.): the index is built on the first call, rows
// sorted in parallel over vertex spans, and kept for the graph's
// lifetime at 4 B/arc beside the CSR's 12 B/arc. Every later call — from
// any goroutine — returns the same read-only slice; callers must not
// write to it.
func (g *CSR) KeyOrder() []int32 {
	return g.Memo(keyOrderIndex, func() any { return g.buildKeyOrder() }).([]int32)
}

// buildKeyOrder computes each arc's key exactly once (instead of
// O(log d) times inside a comparator) into span-local scratch.
func (g *CSR) buildKeyOrder() []int32 {
	order := make([]int32, g.NumArcs())
	par.Ranges(g.NumVertices(), keyOrderGrain, func(lo, hi int) {
		var keys []EdgeKey // span-local scratch, grown to the widest row
		for v := lo; v < hi; v++ {
			rlo, rhi := g.Offsets[v], g.Offsets[v+1]
			row := g.Adj[rlo:rhi]
			ws := g.Weights[rlo:rhi]
			pos := order[rlo:rhi]
			if cap(keys) < len(row) {
				keys = make([]EdgeKey, len(row))
			}
			keys = keys[:len(row)]
			for i := range row {
				pos[i] = int32(i)
				keys[i] = KeyOf(v, int(row[i]), ws[i])
			}
			sortKeyedDesc(pos, keys)
		}
	})
	return order
}

// sortKeyedDesc sorts the parallel (position, key) arrays by decreasing
// key, ties by ascending position: a concrete-typed three-way quicksort
// with median-of-three pivoting and an insertion-sort tail, mirroring
// sortArcs.
func sortKeyedDesc(pos []int32, keys []EdgeKey) {
	for len(pos) > 24 {
		n := len(pos)
		m := n / 2
		if keyedBefore(pos[m], keys[m], pos[0], keys[0]) {
			keyedSwap(pos, keys, m, 0)
		}
		if keyedBefore(pos[n-1], keys[n-1], pos[0], keys[0]) {
			keyedSwap(pos, keys, n-1, 0)
		}
		if keyedBefore(pos[n-1], keys[n-1], pos[m], keys[m]) {
			keyedSwap(pos, keys, n-1, m)
		}
		keyedSwap(pos, keys, 0, m)
		pp, pk := pos[0], keys[0]

		lt, i, gt := 0, 1, n
		for i < gt {
			switch {
			case keyedBefore(pos[i], keys[i], pp, pk):
				keyedSwap(pos, keys, i, lt)
				lt++
				i++
			case keyedBefore(pp, pk, pos[i], keys[i]):
				gt--
				keyedSwap(pos, keys, i, gt)
			default:
				i++
			}
		}
		if lt < n-gt {
			sortKeyedDesc(pos[:lt], keys[:lt])
			pos, keys = pos[gt:], keys[gt:]
		} else {
			sortKeyedDesc(pos[gt:], keys[gt:])
			pos, keys = pos[:lt], keys[:lt]
		}
	}
	for i := 1; i < len(pos); i++ {
		for j := i; j > 0 && keyedBefore(pos[j], keys[j], pos[j-1], keys[j-1]); j-- {
			keyedSwap(pos, keys, j, j-1)
		}
	}
}

// keyedBefore reports whether (p1, k1) sorts before (p2, k2): greater
// key first, equal keys by ascending position.
func keyedBefore(p1 int32, k1 EdgeKey, p2 int32, k2 EdgeKey) bool {
	if k2.Less(k1) {
		return true
	}
	if k1.Less(k2) {
		return false
	}
	return p1 < p2
}

func keyedSwap(pos []int32, keys []EdgeKey, i, j int) {
	pos[i], pos[j] = pos[j], pos[i]
	keys[i], keys[j] = keys[j], keys[i]
}
