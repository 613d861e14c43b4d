// Package gen provides deterministic graph generators reproducing, at
// laptop scale, the structural character of every input family in the
// paper's Table II:
//
//   - RGG — random geometric graphs whose 1-D strip ordering bounds each
//     process's neighborhood to at most two peers (paper §V-B);
//   - RMAT/Graph500 — Kronecker graphs used for the weak-scaling study
//     and the BFS communication-pattern contrast;
//   - SBP — degree-corrected stochastic block partition graphs ("high
//     overlap, low block sizes"), whose dense process connectivity is
//     where Send-Recv beats the collectives (Fig 4c, Table III);
//   - KMerGrids — protein k-mer analogues: many packed grid components
//     of diverse sizes (Fig 5);
//   - ChungLu/Social — heavy-tailed social networks standing in for
//     Orkut and Friendster (Fig 6, Table IV);
//   - BandedMesh — Cage15/HV15R-like banded meshes for the RCM
//     reordering study (Fig 7-9, Tables V-VI);
//   - Path/Grid2D — pathological uniform-weight instances motivating
//     hashed tie-breaking (paper §III-A).
//
// All generators are pure functions of their parameters and seed, and
// independent of GOMAXPROCS: the sample-index space is partitioned into
// fixed-size chunks, each chunk draws from its own counter stream
// derived from (seed, generator salt, chunk index), and chunks are
// fanned out over workers. However the chunks land on workers, chunk c
// always produces the same samples, so the edge multiset — and through
// the canonicalizing CSR builder, the graph — is a pure function of
// (params, seed). The RGG writes its CSR rows itself, each at a
// position fixed by the vertex id.
package gen

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// Per-generator stream salts: every (generator, purpose) pair derives
// its streams under a distinct salt so no two generators — and no two
// sample classes within one generator — ever share a stream.
const (
	saltRGGPoint  = 0xa1 // RGG point coordinates
	saltRGGWeight = 0xa2 // RGG per-edge weights (keyed by endpoint pair)
	saltRMAT      = 0xa3 // RMAT edge samples
	saltSBP       = 0xa4 // SBP edge samples
	saltKMerDims  = 0xa5 // KMerGrids component dimensions
	saltKMerW     = 0xa6 // KMerGrids per-component weights
	saltCLPerm    = 0xa7 // ChungLu hub-scatter permutation
	saltCLSample  = 0xa8 // ChungLu edge samples
	saltMeshChain = 0xa9 // BandedMesh chain weights
	saltMeshFill  = 0xaa // BandedMesh in-band fill samples
	saltMeshFar   = 0xab // BandedMesh long-range samples
	saltScramble  = 0xac // Scramble permutation
)

// sampleChunk is the fixed chunk width of the sample-index space. It is
// a constant — never derived from the worker count — because the chunk
// boundaries define which stream each sample draws from.
const sampleChunk = 1 << 14

// chunkStream returns the counter stream for chunk c of the sample
// class identified by salt.
func chunkStream(seed int64, salt uint64, c int) rng.Stream {
	return rng.NewStream(rng.Derive(uint64(seed), salt, uint64(c)))
}

// forChunks partitions [0, m) into fixed sampleChunk-wide chunks and
// fans the chunks out over workers: fn(c, lo, hi) handles samples
// [lo, hi) of chunk c. Each worker processes a contiguous run of whole
// chunks, so per-chunk streams never straddle workers.
func forChunks(m int, fn func(c, lo, hi int)) {
	nc := (m + sampleChunk - 1) / sampleChunk
	par.Ranges(nc, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * sampleChunk
			hi := lo + sampleChunk
			if hi > m {
				hi = m
			}
			fn(c, lo, hi)
		}
	})
}

// uniformWeight draws an edge weight in (0, 100].
func uniformWeight(s *rng.Stream) float64 {
	return 100 * (1 - s.Float64())
}

// pairKey is the per-vertex prefix of an RGG edge weight. The weight of
// edge {u,v}, u < v, is 100·(1 − U01(Derive(seed, saltRGGWeight, u, v))),
// and Derive folds one value per step as acc = Mix(Mix(acc) ^ v), so all
// but the last Mix depends on u alone: folded once per vertex here, it
// leaves one Mix per arc (arcWeight).
func pairKey(seed int64, u int32) uint64 {
	return rng.Mix(rng.Derive(uint64(seed), saltRGGWeight, uint64(u)))
}

// arcWeight is the weight of RGG edge {u,v}, u < v, given key =
// pairKey(seed, u): a pure function of (seed, u, v), in (0, 100].
func arcWeight(key uint64, v int32) float64 {
	return 100 * (1 - rng.U01(rng.Mix(key^uint64(v))))
}

// RGG generates a random geometric graph: n points uniform in the unit
// square, an edge between points within Euclidean distance radius, and
// vertex ids assigned in ascending x order. The x-sorted numbering means
// a 1-D block distribution over P ranks yields vertical strips, and when
// radius < 1/P each rank's process neighborhood contains at most its two
// adjacent strips — the property the paper's distributed RGG generator
// guarantees.
//
// Points are sampled per chunk and sorted by x (sortByX); a cell grid
// then writes the CSR rows directly (rggGrid.build), with no edge list
// and no builder: the edge set is duplicate-free and symmetric by
// construction, so sorted rows are exactly what graph.Builder would
// make of it.
func RGG(n int, radius float64, seed int64) *graph.CSR {
	if radius <= 0 || radius > 1 {
		panic(fmt.Sprintf("gen: RGG radius %g out of (0,1]", radius))
	}
	pts := make([]point, n)
	forChunks(n, func(c, lo, hi int) {
		s := chunkStream(seed, saltRGGPoint, c)
		for i := lo; i < hi; i++ {
			pts[i].x = s.Float64()
			pts[i].y = s.Float64()
		}
	})
	return newRGGGrid(sortByX(pts), rggCells(n, radius), seed).build(radius)
}

// point is one RGG sample in the unit square.
type point struct{ x, y float64 }

// sortByX returns pts ordered by x, ties in input (draw) order: a stable
// counting sort into n/64+1 equal-width x buckets — x is uniform, so a
// bucket holds ~64 points — then an insertion sort of each bucket, the
// buckets fanned out in parallel. The bucket index is monotone in x, so
// bucket order is x order and equal xs share a bucket.
func sortByX(pts []point) []point {
	nb := len(pts)/64 + 1
	bucket := func(x float64) int { return min(int(x*float64(nb)), nb-1) }
	off := make([]int32, nb+1)
	for _, p := range pts {
		off[bucket(p.x)+1]++
	}
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	next := slices.Clone(off[:nb])
	out := make([]point, len(pts))
	for _, p := range pts {
		b := bucket(p.x)
		out[next[b]] = p
		next[b]++
	}
	par.Ranges(nb, 256, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			s := out[off[b]:off[b+1]]
			for i := 1; i < len(s); i++ {
				p, j := s[i], i
				for ; j > 0 && s[j-1].x > p.x; j-- {
					s[j] = s[j-1]
				}
				s[j] = p
			}
		}
	})
	return out
}

// rggCells is the side of the RGG's square cell grid: cell width 1/cells
// is at least radius, so a point's neighbours lie in its 3x3 block of
// cells, and cells is capped near sqrt(n) to keep the grid O(n) even for
// tiny radii.
func rggCells(n int, radius float64) int {
	return max(min(int(1/radius), int(math.Sqrt(float64(n)))+1), 1)
}

// rggGrid is the x-sorted points binned into a cells×cells grid, column
// by column (cell id cx*cells+cy), with each point's coordinates, vertex
// id and weight key copied in cell order (ascending id within a cell).
// Cells cy-1..cy+1 of one column have consecutive cell ids, so a
// neighbourhood scan reads three contiguous runs of slots; and since
// vertex ids ascend with x, a column's points hold one contiguous id
// range, so a span of columns writes one contiguous stretch of rows.
type rggGrid struct {
	cells int
	off   []int32  // slots of cell c: [off[c], off[c+1])
	pt    []point  // per slot
	id    []int32  // per slot: the point's vertex id
	key   []uint64 // per slot: pairKey of that id
}

func newRGGGrid(pts []point, cells int, seed int64) *rggGrid {
	cellOf := func(p point) int32 {
		cx := min(int(p.x*float64(cells)), cells-1)
		cy := min(int(p.y*float64(cells)), cells-1)
		return int32(cx*cells + cy)
	}
	n, ncell := len(pts), cells*cells
	off := make([]int32, ncell+1)
	for _, p := range pts {
		off[cellOf(p)+1]++
	}
	for c := 0; c < ncell; c++ {
		off[c+1] += off[c]
	}
	g := &rggGrid{cells: cells, off: off, pt: make([]point, n), id: make([]int32, n), key: make([]uint64, n)}
	next := slices.Clone(off[:ncell])
	for v, p := range pts {
		c := cellOf(p)
		k := next[c]
		next[c]++
		g.pt[k], g.id[k] = p, int32(v)
	}
	par.Ranges(n, 4096, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			g.key[k] = pairKey(seed, g.id[k])
		}
	})
	return g
}

// scan calls visit for every slot p in the cell columns of each span,
// spans in parallel, with the slot runs of p's 3x3 cell neighbourhood
// (one run per neighbouring column, p's own slot included).
func (g *rggGrid) scan(spans [][2]int, visit func(p int32, rs [3][2]int32, nr int)) {
	par.Do(spans, func(_, lo, hi int) {
		for cx := lo; cx < hi; cx++ {
			x0, x1 := max(cx-1, 0), min(cx+1, g.cells-1)
			for cy := 0; cy < g.cells; cy++ {
				y0, y1 := max(cy-1, 0), min(cy+1, g.cells-1)
				var rs [3][2]int32
				nr := 0
				for nx := x0; nx <= x1; nx++ {
					rs[nr] = [2]int32{g.off[nx*g.cells+y0], g.off[nx*g.cells+y1+1]}
					nr++
				}
				c := cx*g.cells + cy
				for p := g.off[c]; p < g.off[c+1]; p++ {
					visit(p, rs, nr)
				}
			}
		}
	})
}

// build writes the CSR in two passes over cell-column spans: the first
// counts each vertex's in-radius neighbours into Offsets, the second has
// each vertex fill only its own row, insertion-sorted by neighbour id.
// Every write lands at a position fixed by the vertex id, so the graph
// is independent of the span split, and a−b = −(b−a) exactly, so both
// ends of a pair agree on its distance.
func (g *rggGrid) build(radius float64) *graph.CSR {
	r2 := radius * radius
	n := len(g.pt)
	csr := &graph.CSR{Offsets: make([]int64, n+1)}
	spans := par.Split(g.cells, 1)
	g.scan(spans, func(p int32, rs [3][2]int32, nr int) {
		pp, d := g.pt[p], int64(-1) // the scan meets p itself
		for _, r := range rs[:nr] {
			for _, qp := range g.pt[r[0]:r[1]] {
				ddx, ddy := pp.x-qp.x, pp.y-qp.y
				if ddx*ddx+ddy*ddy <= r2 {
					d++
				}
			}
		}
		csr.Offsets[g.id[p]+1] = d
	})
	for v := 0; v < n; v++ {
		csr.Offsets[v+1] += csr.Offsets[v]
	}
	adj := make([]int32, csr.Offsets[n])
	wts := make([]float64, csr.Offsets[n])
	g.scan(spans, func(p int32, rs [3][2]int32, nr int) {
		pp, u := g.pt[p], g.id[p]
		start := csr.Offsets[u]
		end := start
		// Candidates are screened into hit 64 at a time without a branch:
		// the in-radius test is a near coin flip that a branch mispredicts.
		var hit [64]int32
		for _, r := range rs[:nr] {
			for lo := r[0]; lo < r[1]; lo += int32(len(hit)) {
				k := 0
				for q := lo; q < min(lo+int32(len(hit)), r[1]); q++ {
					ddx, ddy := pp.x-g.pt[q].x, pp.y-g.pt[q].y
					hit[k] = q
					if ddx*ddx+ddy*ddy <= r2 {
						k++
					}
				}
				for _, q := range hit[:k] {
					if q == p {
						continue
					}
					v := g.id[q]
					var w float64
					if u < v {
						w = arcWeight(g.key[p], v)
					} else {
						w = arcWeight(g.key[q], u)
					}
					j := end
					for ; j > start && adj[j-1] > v; j-- {
						adj[j], wts[j] = adj[j-1], wts[j-1]
					}
					adj[j], wts[j] = v, w
					end++
				}
			}
		}
	})
	csr.Adj, csr.Weights = adj, wts
	return csr
}

// RGGRadiusForDegree returns the radius giving expected average degree d
// for an n-point RGG (d = n*pi*r^2).
func RGGRadiusForDegree(n int, d float64) float64 {
	return math.Sqrt(d / (math.Pi * float64(n)))
}

// RMAT generates a recursive-matrix (Kronecker) graph with 2^scale
// vertices and edgeFactor*2^scale sampled edges, using quadrant
// probabilities (a,b,c,d). Duplicate samples and self loops are dropped
// by the builder, so the realized edge count is slightly lower, as in
// Graph500 practice. Samples fan out per chunk; sample e always lands at
// edges[e].
func RMAT(scale, edgeFactor int, a, bq, cq, dq float64, seed int64) *graph.CSR {
	if s := a + bq + cq + dq; math.Abs(s-1) > 1e-9 {
		panic(fmt.Sprintf("gen: RMAT probabilities sum to %g, want 1", s))
	}
	n := 1 << scale
	m := edgeFactor * n
	edges := make([]graph.Edge, m)
	forChunks(m, func(c, lo, hi int) {
		s := chunkStream(seed, saltRMAT, c)
		for e := lo; e < hi; e++ {
			u, v := 0, 0
			for bit := 0; bit < scale; bit++ {
				r := s.Float64()
				switch {
				case r < a:
					// top-left: no bits set
				case r < a+bq:
					v |= 1 << bit
				case r < a+bq+cq:
					u |= 1 << bit
				default:
					u |= 1 << bit
					v |= 1 << bit
				}
			}
			edges[e] = graph.Edge{U: u, V: v, W: uniformWeight(&s)}
		}
	})
	b := graph.NewBuilder(n)
	b.UseEdges(edges)
	return b.Build()
}

// Graph500 generates an R-MAT graph with the Graph500 benchmark
// parameters: a=0.57, b=c=0.19, d=0.05 and edge factor 16.
func Graph500(scale int, seed int64) *graph.CSR {
	return RMAT(scale, 16, 0.57, 0.19, 0.19, 0.05, seed)
}

// SBP generates a degree-corrected stochastic-block-partition graph of n
// vertices in blocks blocks with expected average degree avgDeg.
// overlap in [0,1) is the probability that an edge leaves its block, and
// cross-block endpoints are spread uniformly over all other blocks — high
// overlap with small blocks ("HILO") therefore connects every partition
// to every other, which is exactly why the paper's process graphs for
// this family are near-complete (Table III).
func SBP(n, blocks int, avgDeg, overlap float64, seed int64) *graph.CSR {
	if blocks < 1 || blocks > n {
		panic(fmt.Sprintf("gen: SBP blocks=%d out of [1,%d]", blocks, n))
	}
	if overlap < 0 || overlap >= 1 {
		panic(fmt.Sprintf("gen: SBP overlap=%g out of [0,1)", overlap))
	}
	m := int(float64(n) * avgDeg / 2)
	blockSize := (n + blocks - 1) / blocks
	// Rounding can leave trailing blocks empty; only target real ones.
	blocks = (n + blockSize - 1) / blockSize
	blockOf := func(v int) int { return v / blockSize }
	randIn := func(s *rng.Stream, blk int) int {
		lo := blk * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		return lo + s.Intn(hi-lo)
	}
	edges := make([]graph.Edge, m)
	forChunks(m, func(c, lo, hi int) {
		s := chunkStream(seed, saltSBP, c)
		for e := lo; e < hi; e++ {
			u := s.Intn(n)
			var v int
			if s.Float64() < overlap && blocks > 1 {
				// Cross-block edge to a uniformly random other block.
				blk := s.Intn(blocks - 1)
				if blk >= blockOf(u) {
					blk++
				}
				v = randIn(&s, blk)
			} else {
				v = randIn(&s, blockOf(u))
			}
			edges[e] = graph.Edge{U: u, V: v, W: uniformWeight(&s)}
		}
	})
	b := graph.NewBuilder(n)
	b.UseEdges(edges)
	return b.Build()
}

// KMerGrids generates a protein-k-mer-style input: components disjoint
// 2-D grid components whose side lengths are drawn from [minSide,
// maxSide], numbered component by component in row-major order. The
// paper notes these graphs "consist of grids of different sizes" whose
// dense packing stresses neighborhood collectives (Fig 5). Components
// are independent — dimensions are drawn up front, then each component
// fills its precomputed edge range in parallel under its own stream.
func KMerGrids(components, minSide, maxSide int, seed int64) *graph.CSR {
	if minSide < 1 || maxSide < minSide {
		panic(fmt.Sprintf("gen: KMerGrids sides [%d,%d] invalid", minSide, maxSide))
	}
	dims := chunkStream(seed, saltKMerDims, 0)
	type grid struct{ r, c int }
	sizes := make([]grid, components)
	voff := make([]int, components+1)
	eoff := make([]int, components+1)
	for i := range sizes {
		r := minSide + dims.Intn(maxSide-minSide+1)
		c := minSide + dims.Intn(maxSide-minSide+1)
		sizes[i] = grid{r, c}
		voff[i+1] = voff[i] + r*c
		eoff[i+1] = eoff[i] + r*(c-1) + (r-1)*c
	}
	edges := make([]graph.Edge, eoff[components])
	par.Ranges(components, 1, func(clo, chi int) {
		for comp := clo; comp < chi; comp++ {
			s := rng.NewStream(rng.Derive(uint64(seed), saltKMerW, uint64(comp)))
			d := sizes[comp]
			base := voff[comp]
			id := func(i, j int) int { return base + i*d.c + j }
			k := eoff[comp]
			for i := 0; i < d.r; i++ {
				for j := 0; j < d.c; j++ {
					if j+1 < d.c {
						edges[k] = graph.Edge{U: id(i, j), V: id(i, j+1), W: uniformWeight(&s)}
						k++
					}
					if i+1 < d.r {
						edges[k] = graph.Edge{U: id(i, j), V: id(i+1, j), W: uniformWeight(&s)}
						k++
					}
				}
			}
		}
	})
	b := graph.NewBuilder(voff[components])
	b.UseEdges(edges)
	return b.Build()
}

// ChungLu generates a graph with an expected power-law degree sequence
// of exponent gamma (> 2) and expected average degree avgDeg, by
// sampling endpoint pairs proportional to per-vertex weights. Heavy-tail
// hubs connect distant id ranges, so block partitions of these graphs
// produce near-complete process graphs — the paper's Friendster/Orkut
// behavior (Table IV). The power-law weight table fans out over vertex
// spans; edge samples fan out per chunk.
func ChungLu(n int, avgDeg, gamma float64, seed int64) *graph.CSR {
	if gamma <= 2 {
		panic(fmt.Sprintf("gen: ChungLu gamma=%g must exceed 2", gamma))
	}
	// Desired expected degrees: w_i proportional to (i+i0)^(-1/(gamma-1)).
	// math.Pow dominates setup, so the table is computed in parallel with
	// per-span partial sums.
	w := make([]float64, n)
	exp := -1 / (gamma - 1)
	spans := par.Split(n, 2048)
	partial := make([]float64, len(spans))
	par.Do(spans, func(si, lo, hi int) {
		var sum float64
		for i := lo; i < hi; i++ {
			w[i] = math.Pow(float64(i+10), exp)
			sum += w[i]
		}
		partial[si] = sum
	})
	var sum float64
	for _, p := range partial {
		sum += p
	}
	scale := avgDeg * float64(n) / sum
	cum := make([]float64, n+1)
	for i := range w {
		w[i] *= scale
		cum[i+1] = cum[i] + w[i]
	}
	totalW := cum[n]
	draw := func(s *rng.Stream) int {
		x := s.Float64() * totalW
		return sort.SearchFloat64s(cum[1:], x)
	}
	// Scatter hubs across the id space so hubs do not all land in rank 0's
	// block: apply a deterministic hash shuffle of ids.
	perm := rng.Perm(n, rng.Derive(uint64(seed), saltCLPerm))
	m := int(avgDeg * float64(n) / 2)
	edges := make([]graph.Edge, m)
	forChunks(m, func(c, lo, hi int) {
		s := chunkStream(seed, saltCLSample, c)
		for e := lo; e < hi; e++ {
			u, v := draw(&s), draw(&s)
			edges[e] = graph.Edge{U: perm[u], V: perm[v], W: uniformWeight(&s)}
		}
	})
	b := graph.NewBuilder(n)
	b.UseEdges(edges)
	return b.Build()
}

// Social generates an Orkut/Friendster-style social network: power law
// with exponent 2.3.
func Social(n int, avgDeg float64, seed int64) *graph.CSR {
	return ChungLu(n, avgDeg, 2.3, seed)
}

// BandedMesh generates a Cage15/HV15R-style banded mesh: a Hamiltonian
// chain plus fill random edges per vertex within +-band, plus a fraction
// longRange of uniformly random long edges that give the "irregular block
// structures" the paper observes along the diagonal (Fig 9). The three
// sample classes (chain, fill, far) each chunk their own index space;
// fill samples that would fall off both ends of the id range become
// {0,0} self-loop sentinels, which the builder drops.
func BandedMesh(n, band int, fill, longRange float64, seed int64) *graph.CSR {
	if band < 1 {
		panic("gen: BandedMesh band must be >= 1")
	}
	chain := n - 1
	if chain < 0 {
		chain = 0
	}
	extra := int(fill * float64(n))
	far := int(longRange * float64(n))
	edges := make([]graph.Edge, chain+extra+far)
	forChunks(chain, func(c, lo, hi int) {
		s := chunkStream(seed, saltMeshChain, c)
		for v := lo; v < hi; v++ {
			edges[v] = graph.Edge{U: v, V: v + 1, W: uniformWeight(&s)}
		}
	})
	forChunks(extra, func(c, lo, hi int) {
		s := chunkStream(seed, saltMeshFill, c)
		for e := lo; e < hi; e++ {
			u := s.Intn(n)
			off := 1 + s.Intn(band)
			w := uniformWeight(&s)
			v := u + off
			if v >= n {
				v = u - off
			}
			if v < 0 {
				edges[chain+e] = graph.Edge{} // dead sample: dropped self loop
				continue
			}
			edges[chain+e] = graph.Edge{U: u, V: v, W: w}
		}
	})
	forChunks(far, func(c, lo, hi int) {
		s := chunkStream(seed, saltMeshFar, c)
		for e := lo; e < hi; e++ {
			u, v := s.Intn(n), s.Intn(n)
			edges[chain+extra+e] = graph.Edge{U: u, V: v, W: uniformWeight(&s)}
		}
	})
	b := graph.NewBuilder(n)
	b.UseEdges(edges)
	return b.Build()
}

// Path returns the pathological path graph 0-1-...-(n-1) with all edge
// weights equal — the instance where locally-dominant matching without
// hashed tie-breaking degenerates to a sequential chain.
func Path(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1, 1)
	}
	return b.Build()
}

// Grid2D returns an r-by-c grid with unit weights and row-major ids,
// the second pathological family from §III-A.
func Grid2D(r, c int) *graph.CSR {
	b := graph.NewBuilder(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				b.AddEdge(id(i, j), id(i, j+1), 1)
			}
			if i+1 < r {
				b.AddEdge(id(i, j), id(i+1, j), 1)
			}
		}
	}
	return b.Build()
}

// OrderByDegree relabels g so vertex ids descend by degree (ties by old
// id). Sparse-matrix collections often store rows grouped by structural
// role, concentrating dense rows; this ordering models that "original"
// layout for the reordering study: per-block work is skewed until RCM
// interleaves degrees along BFS levels.
func OrderByDegree(g *graph.CSR) *graph.CSR {
	n := g.NumVertices()
	deg := make([]int, n)
	byDeg := make([]int, n)
	for i := range byDeg {
		deg[i] = g.Degree(i)
		byDeg[i] = i
	}
	sort.Slice(byDeg, func(a, b int) bool {
		da, db := deg[byDeg[a]], deg[byDeg[b]]
		if da != db {
			return da > db
		}
		return byDeg[a] < byDeg[b]
	})
	perm := make([]int, n)
	for newID, oldID := range byDeg {
		perm[oldID] = newID
	}
	return g.Permute(perm)
}

// Scramble relabels g by a seeded random permutation and returns the new
// graph along with the permutation used (newID = perm[oldID]). The RCM
// experiments scramble a banded mesh to obtain the "original" (poorly
// ordered) input that reordering then repairs.
func Scramble(g *graph.CSR, seed int64) (*graph.CSR, []int) {
	perm := rng.Perm(g.NumVertices(), rng.Derive(uint64(seed), saltScramble))
	return g.Permute(perm), perm
}
