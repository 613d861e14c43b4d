package graph

// ConnectedComponents labels each vertex with a component id in [0, k)
// and returns the labels plus k. Component ids are assigned in order of
// each component's smallest vertex. Used by the k-mer workload analysis
// (those graphs are unions of many small grids) and by diagnostics.
func (g *CSR) ConnectedComponents() (labels []int, count int) {
	n := g.NumVertices()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for v := 0; v < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = count
		queue = append(queue[:0], int32(v))
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, a := range g.Neighbors(int(x)) {
				if labels[a] < 0 {
					labels[a] = count
					queue = append(queue, a)
				}
			}
		}
		count++
	}
	return labels, count
}
