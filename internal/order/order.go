// Package order implements graph reordering: breadth-first search
// levelization, pseudo-peripheral root finding, and the Reverse
// Cuthill-McKee (RCM) bandwidth-reduction heuristic used in the paper's
// §V-C reordering study.
package order

import (
	"sort"

	"repro/internal/graph"
)

// BFSLevels returns each vertex's BFS level from root (-1 for
// unreachable vertices) and the number of reached vertices.
func BFSLevels(g *graph.CSR, root int) (levels []int, reached int) {
	n := g.NumVertices()
	levels = make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	queue := make([]int32, 0, n)
	levels[root] = 0
	queue = append(queue, int32(root))
	reached = 1
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, a := range g.Neighbors(v) {
			if levels[a] < 0 {
				levels[a] = levels[v] + 1
				queue = append(queue, a)
				reached++
			}
		}
	}
	return levels, reached
}

// PseudoPeripheral finds an approximately peripheral vertex of start's
// connected component using the George-Liu iteration: repeatedly jump to
// a minimum-degree vertex in the last BFS level until the eccentricity
// stops growing.
func PseudoPeripheral(g *graph.CSR, start int) int {
	cur := start
	curEcc := -1
	for {
		levels, _ := BFSLevels(g, cur)
		ecc, far := 0, cur
		for v, l := range levels {
			if l > ecc {
				ecc = l
				far = v
			} else if l == ecc && l > 0 && g.Degree(v) < g.Degree(far) {
				far = v
			}
		}
		if ecc <= curEcc {
			return cur
		}
		cur, curEcc = far, ecc
	}
}

// CuthillMcKee computes the Cuthill-McKee ordering and returns perm with
// newID = perm[oldID]. Each connected component is rooted at a
// pseudo-peripheral vertex of its lowest-id member; components are laid
// out in order of that lowest id. Within the BFS, neighbors are visited
// in ascending degree (ties by id), the classical CM rule.
func CuthillMcKee(g *graph.CSR) []int {
	n := g.NumVertices()
	perm := make([]int, n)
	visited := make([]bool, n)
	next := 0
	scratch := make([]int32, 0, 64)
	for v0 := 0; v0 < n; v0++ {
		if visited[v0] {
			continue
		}
		root := PseudoPeripheral(g, v0)
		visited[root] = true
		queue := []int32{int32(root)}
		for head := 0; head < len(queue); head++ {
			v := int(queue[head])
			perm[v] = next
			next++
			scratch = scratch[:0]
			for _, a := range g.Neighbors(v) {
				if !visited[a] {
					visited[a] = true
					scratch = append(scratch, a)
				}
			}
			sort.Slice(scratch, func(i, j int) bool {
				di, dj := g.Degree(int(scratch[i])), g.Degree(int(scratch[j]))
				if di != dj {
					return di < dj
				}
				return scratch[i] < scratch[j]
			})
			queue = append(queue, scratch...)
		}
	}
	return perm
}

// RCM computes the Reverse Cuthill-McKee ordering: the Cuthill-McKee
// order with positions reversed, which never increases and usually
// reduces the envelope relative to CM (Liu & Sherman 1976, the paper's
// ref [24]).
func RCM(g *graph.CSR) []int {
	perm := CuthillMcKee(g)
	n := len(perm)
	for i := range perm {
		perm[i] = n - 1 - perm[i]
	}
	return perm
}

// Apply relabels g by perm (newID = perm[oldID]); a convenience wrapper
// over graph.CSR.Permute that reads naturally at call sites.
func Apply(g *graph.CSR, perm []int) *graph.CSR { return g.Permute(perm) }

// IsPermutation reports whether perm is a bijection on [0, len(perm)).
func IsPermutation(perm []int) bool {
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}
