package gen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// rggReference is RGG as it was before it wrote its own rows: a serial
// interface sort of the points, a 9-cell search that tests each pair from
// its lower id and hashes the weight with a full rng.Derive, and per-span
// edge buffers concatenated into graph.Builder. It lives in a test file
// so the shipped generator has one path; RGG must match it byte for byte.
func rggReference(n int, radius float64, seed int64) *graph.CSR {
	xs := make([]float64, n)
	ys := make([]float64, n)
	forChunks(n, func(c, lo, hi int) {
		s := chunkStream(seed, saltRGGPoint, c)
		for i := lo; i < hi; i++ {
			xs[i] = s.Float64()
			ys[i] = s.Float64()
		}
	})
	sort.Sort(&refPointSorter{xs, ys})

	cells := int(1 / radius)
	if c := int(math.Sqrt(float64(n))) + 1; cells > c {
		cells = c
	}
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) int {
		cx := int(xs[i] * float64(cells))
		cy := int(ys[i] * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cy*cells + cx
	}
	ncell := cells * cells
	cell := make([]int32, n)
	off := make([]int32, ncell+1)
	for i := 0; i < n; i++ {
		cid := cellOf(i)
		cell[i] = int32(cid)
		off[cid+1]++
	}
	for c := 0; c < ncell; c++ {
		off[c+1] += off[c]
	}
	binIdx := make([]int32, n)
	cursor := make([]int32, ncell)
	copy(cursor, off[:ncell])
	for i := 0; i < n; i++ {
		c := cell[i]
		binIdx[cursor[c]] = int32(i)
		cursor[c]++
	}

	r2 := radius * radius
	spans := par.Split(n, 2048)
	bufs := make([][]graph.Edge, len(spans))
	par.Do(spans, func(si, lo, hi int) {
		var buf []graph.Edge
		for i := lo; i < hi; i++ {
			cx, cy := int(cell[i])%cells, int(cell[i])/cells
			for dy := -1; dy <= 1; dy++ {
				ny := cy + dy
				if ny < 0 || ny >= cells {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					nx := cx + dx
					if nx < 0 || nx >= cells {
						continue
					}
					cid := ny*cells + nx
					for _, j32 := range binIdx[off[cid]:off[cid+1]] {
						j := int(j32)
						if j <= i {
							continue
						}
						ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
						if ddx*ddx+ddy*ddy <= r2 {
							buf = append(buf, graph.Edge{U: i, V: j, W: pairWeight(seed, saltRGGWeight, i, j)})
						}
					}
				}
			}
		}
		bufs[si] = buf
	})
	var edges []graph.Edge
	for _, b := range bufs {
		edges = append(edges, b...)
	}
	b := graph.NewBuilder(n)
	b.UseEdges(edges)
	return b.Build()
}

// pairWeight is the RGG edge weight by its definition: the weight of
// edge {u,v}, u < v, under seed, in (0, 100].
func pairWeight(seed int64, salt uint64, u, v int) float64 {
	return 100 * (1 - rng.U01(rng.Derive(uint64(seed), salt, uint64(u), uint64(v))))
}

type refPointSorter struct{ xs, ys []float64 }

func (p *refPointSorter) Len() int           { return len(p.xs) }
func (p *refPointSorter) Less(i, j int) bool { return p.xs[i] < p.xs[j] }
func (p *refPointSorter) Swap(i, j int) {
	p.xs[i], p.xs[j] = p.xs[j], p.xs[i]
	p.ys[i], p.ys[j] = p.ys[j], p.ys[i]
}

// csrDiff names the first difference between two CSRs, or returns ""
// when their offsets, adjacency and weight bits are identical.
func csrDiff(a, b *graph.CSR) string {
	if i := firstDiff(a.Offsets, b.Offsets); i >= 0 {
		return fmt.Sprintf("Offsets differ at %d (lengths %d, %d)", i, len(a.Offsets), len(b.Offsets))
	}
	if i := firstDiff(a.Adj, b.Adj); i >= 0 {
		return fmt.Sprintf("Adj differs at arc %d (lengths %d, %d)", i, len(a.Adj), len(b.Adj))
	}
	bits := func(ws []float64) []uint64 {
		out := make([]uint64, len(ws))
		for i, w := range ws {
			out[i] = math.Float64bits(w)
		}
		return out
	}
	if i := firstDiff(bits(a.Weights), bits(b.Weights)); i >= 0 {
		return fmt.Sprintf("Weights differ at arc %d (lengths %d, %d)", i, len(a.Weights), len(b.Weights))
	}
	return ""
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestRGGMatchesReference: RGG is byte-identical to the builder path
// across sizes (empty, single point, below and above one sample chunk),
// seeds and radii, including a one-cell grid and grids held to the
// √n+1 cap.
func TestRGGMatchesReference(t *testing.T) {
	type tc struct {
		n      int
		radius float64
	}
	var cases []tc
	for _, n := range []int{0, 1, 2, 10, 100, 1000, 4000, 16384, 20000, 50000, 200000} {
		cases = append(cases, tc{n, min(RGGRadiusForDegree(n, 8), 1)})
	}
	cases = append(cases, tc{300, 1}, tc{300, 0.9}, tc{300, 0.3}, tc{1000, 0.001}, tc{2000, 0.02})
	if rggCells(300, 0.9) != 1 || rggCells(1000, 0.001) >= 1000 || rggCells(2000, 0.02) >= 50 {
		t.Fatal("the case list no longer covers a one-cell grid and the √n+1 cap")
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			if d := csrDiff(RGG(c.n, c.radius, seed), rggReference(c.n, c.radius, seed)); d != "" {
				t.Errorf("RGG(%d, %g, %d): %s", c.n, c.radius, seed, d)
			}
		}
	}
}

// TestSortByXBreaksTiesByDrawOrder plants heavy x ties (half the points
// on a 37-value grid, the rest uniform, plus the largest x below 1) and
// holds sortByX to a stable sort by x: equal xs keep their draw order.
func TestSortByXBreaksTiesByDrawOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 5000} {
		s := rng.NewStream(uint64(n))
		pts := make([]point, n)
		for i := range pts {
			pts[i] = point{x: s.Float64(), y: float64(i)}
			switch {
			case i%2 == 0:
				pts[i].x = float64(s.Intn(37)) / 37
			case i%7 == 0:
				pts[i].x = math.Nextafter(1, 0)
			}
		}
		want := slices.Clone(pts)
		slices.SortStableFunc(want, func(a, b point) int { return cmp.Compare(a.x, b.x) })
		if got := sortByX(pts); !slices.Equal(got, want) {
			t.Errorf("n=%d: sortByX differs from a stable sort by x", n)
		}
	}
}

// FuzzRGGMatchesReference: RGG equals rggReference for any n ≤ 3000,
// radius in (0, 1] and seed. Large radii make near-complete graphs, so
// n is halved until the expected arc count is at most 1M, which keeps an
// execution in the tens of milliseconds.
func FuzzRGGMatchesReference(f *testing.F) {
	f.Add(uint16(3000), uint32(20_000), int64(1))
	f.Add(uint16(300), uint32(999_999), int64(2)) // radius 1: one cell
	f.Add(uint16(1000), uint32(999), int64(3))    // radius 0.001: √n+1 cap
	f.Add(uint16(2), uint32(500_000), int64(-7))
	f.Fuzz(func(t *testing.T, nb uint16, rb uint32, seed int64) {
		n := int(nb) % 3001
		radius := float64(rb%1_000_000+1) / 1_000_000
		for float64(n)*float64(n)*min(math.Pi*radius*radius, 1) > 1e6 {
			n /= 2
		}
		if d := csrDiff(RGG(n, radius, seed), rggReference(n, radius, seed)); d != "" {
			t.Fatalf("RGG(%d, %g, %d): %s", n, radius, seed, d)
		}
	})
}
