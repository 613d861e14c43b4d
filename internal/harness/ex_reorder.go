package harness

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/order"
)

// densityRow renders one row of a coarse density plot; levels mirror the
// paper's black-spots-are-zero rendering.
func densityGlyph(v, max int64) byte {
	if v == 0 {
		return ' '
	}
	levels := []byte{'.', ':', '*', '#', '@'}
	idx := int(int64(len(levels)) * v / (max + 1))
	if idx >= len(levels) {
		idx = len(levels) - 1
	}
	return levels[idx]
}

// adjacencyDensity buckets the adjacency matrix of g into a buckets x
// buckets grid of edge counts, rendered as text (the paper's Fig 7
// spy-plot rendering).
func adjacencyDensity(g *graph.CSR, buckets int) []string {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	if buckets > n {
		buckets = n
	}
	grid := make([][]int64, buckets)
	for i := range grid {
		grid[i] = make([]int64, buckets)
	}
	var max int64
	for v := 0; v < n; v++ {
		for _, a := range g.Neighbors(v) {
			bi := v * buckets / n
			bj := int(a) * buckets / n
			grid[bi][bj]++
			if grid[bi][bj] > max {
				max = grid[bi][bj]
			}
		}
	}
	return renderGrid(grid, max)
}

// MatrixDensity renders a per-pair communication matrix as a density
// grid of at most buckets x buckets cells (Figs 2, 9, 11); with buckets
// = len(m) each cell is one rank pair.
func MatrixDensity(m [][]int64, buckets int) []string {
	n := len(m)
	if n == 0 {
		return nil
	}
	if buckets > n {
		buckets = n
	}
	grid := make([][]int64, buckets)
	for i := range grid {
		grid[i] = make([]int64, buckets)
	}
	var max int64
	for i := range m {
		for j, v := range m[i] {
			bi := i * buckets / n
			bj := j * buckets / n
			grid[bi][bj] += v
			if grid[bi][bj] > max {
				max = grid[bi][bj]
			}
		}
	}
	return renderGrid(grid, max)
}

func renderGrid(grid [][]int64, max int64) []string {
	rows := make([]string, len(grid))
	for i, r := range grid {
		line := make([]byte, len(r))
		for j, v := range r {
			line[j] = densityGlyph(v, max)
		}
		rows[i] = "|" + string(line) + "|"
	}
	return rows
}

// rcmOf memoizes the RCM-reordered version of a named workload.
func (c Config) rcmOf(name string, g *graph.CSR) *graph.CSR {
	return c.memo(name+"-rcm", func() *graph.CSR {
		return order.Apply(g, order.RCM(g))
	})
}

func init() {
	register(&Experiment{
		ID:    "fig7",
		Title: "Adjacency structure of original vs RCM-reordered meshes",
		Paper: "originals are scattered; RCM produces tight banded structure along the diagonal",
		Run: func(cfg Config) ([]*Table, error) {
			var tables []*Table
			for _, in := range []struct {
				name string
				g    *graph.CSR
			}{
				{"cage15-analogue", cfg.cage15()},
				{"hv15r-analogue", cfg.hv15r()},
			} {
				re := cfg.rcmOf(in.name, in.g)
				t := &Table{ID: "fig7", Title: in.name + " adjacency structure (left: original, right: RCM)",
					Headers: []string{"original", "RCM"}}
				a, b := adjacencyDensity(in.g, 24), adjacencyDensity(re, 24)
				for i := range a {
					t.AddRow(a[i], b[i])
				}
				t.AddRow(fmt.Sprintf("bandwidth=%d", in.g.Bandwidth()), fmt.Sprintf("bandwidth=%d", re.Bandwidth()))
				t.AddRow(fmt.Sprintf("profile=%d", in.g.Profile()), fmt.Sprintf("profile=%d", re.Profile()))
				t.Notes = append(t.Notes, "expected shape: RCM bandwidth and profile orders of magnitude below original")
				tables = append(tables, t)
			}
			return tables, nil
		},
	})

	register(&Experiment{
		ID:    "tab5",
		Title: "Ghost-augmented edges |E'| for original vs RCM partitions",
		Paper: "totals within 1-5%, but sigma(|E'|) drops 30-40% under RCM (better balance)",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "tab5", Title: "|E'| statistics, original vs RCM",
				Headers: []string{"graph", "p", "order", "|E'|", "|E'|max", "|E'|avg", "sigma"}}
			for _, in := range []struct {
				name string
				g    *graph.CSR
				p    int
			}{
				{"cage15-analogue", cfg.cage15(), cfg.scaledProcs(32)},
				{"hv15r-analogue", cfg.hv15r(), cfg.scaledProcs(64)},
			} {
				for _, v := range []struct {
					order string
					g     *graph.CSR
				}{{"original", in.g}, {"RCM", cfg.rcmOf(in.name, in.g)}} {
					st := distgraph.NewBlockDist(v.g, in.p).GhostEdgeStats()
					t.AddRow(in.name, fmt.Sprint(in.p), v.order,
						fmt.Sprint(st.Total), fmt.Sprint(st.Max), f2(st.Avg), f2(st.Sigma))
				}
			}
			t.Notes = append(t.Notes, "expected shape: RCM rows have clearly smaller sigma and |E'|max")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "tab6",
		Title: "Process-graph topology of original vs RCM orderings",
		Paper: "counter-intuitively, RCM raises davg ~2x under 1-D partitioning (more, smaller neighbor exchanges)",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "tab6", Title: "Neighborhood topology, original vs RCM",
				Headers: []string{"graph", "p", "order", "|Ep|", "dmax", "davg", "sigma_d"}}
			for _, in := range []struct {
				name string
				g    *graph.CSR
				p    int
			}{
				{"cage15-analogue", cfg.cage15(), cfg.scaledProcs(32)},
				{"hv15r-analogue", cfg.hv15r(), cfg.scaledProcs(64)},
			} {
				for _, v := range []struct {
					order string
					g     *graph.CSR
				}{{"original", in.g}, {"RCM", cfg.rcmOf(in.name, in.g)}} {
					st := distgraph.NewBlockDist(v.g, in.p).ProcessGraphStats()
					t.AddRow(in.name, fmt.Sprint(in.p), v.order,
						fmt.Sprint(st.Edges), fmt.Sprint(st.DMax), f2(st.DAvg), f2(st.DSigma))
				}
			}
			t.Notes = append(t.Notes,
				"our scrambled 'original' has a denser process graph than the paper's (already partially ordered) inputs;",
				"the invariant that transfers: RCM localizes communication into few, adjacent, balanced neighbors")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig8",
		Title: "All four implementations on original vs RCM inputs",
		Paper: "NCL gains 2-5x over NSR on RCM inputs; NSR slows 1.2-1.7x on reordered graphs; NSR 1.2-2x over MBP; NCL/RMA 2.5-7x over MBP",
		Run: func(cfg Config) ([]*Table, error) {
			models := cfg.models([]matching.Model{matching.NSR, matching.RMA, matching.NCL, matching.MBP})
			var tables []*Table
			for _, p := range []int{cfg.scaledProcs(32), cfg.scaledProcs(64)} {
				t := &Table{ID: "fig8", Title: fmt.Sprintf("original vs RCM on %d processes", p)}
				t.Headers = []string{"graph"}
				for _, m := range models {
					t.Headers = append(t.Headers, m.String())
				}
				t.Headers = append(t.Headers, "best/NSR")
				for _, in := range []struct {
					name string
					g    *graph.CSR
				}{
					{"cage15", cfg.cage15()},
					{"cage15(RCM)", cfg.rcmOf("cage15-analogue", cfg.cage15())},
					{"hv15r", cfg.hv15r()},
					{"hv15r(RCM)", cfg.rcmOf("hv15r-analogue", cfg.hv15r())},
				} {
					cfg.logf("fig8: %s p=%d", in.name, p)
					row := []string{in.name}
					var nsr, best float64
					for _, m := range models {
						res, err := cfg.match(in.name, in.g, p, m, false)
						if err != nil {
							return nil, fmt.Errorf("%s/%v: %w", in.name, m, err)
						}
						tm := res.Report.MaxVirtualTime
						if m == matching.NSR {
							nsr = tm
						}
						if best == 0 || tm < best {
							best = tm
						}
						row = append(row, ms(tm))
					}
					row = append(row, speedup(nsr, best))
					t.AddRow(row...)
				}
				t.Notes = append(t.Notes, "expected shape: NCL/RMA lead on RCM rows; MBP slowest everywhere")
				tables = append(tables, t)
			}
			return tables, nil
		},
	})

	register(&Experiment{
		ID:    "fig9",
		Title: "Communication byte volumes, original vs RCM (HV15R analogue)",
		Paper: "RCM pulls traffic toward the diagonal; irregular blocks along it cause residual imbalance",
		Run: func(cfg Config) ([]*Table, error) {
			p := cfg.scaledProcs(32)
			var tables []*Table
			grids := make([][]string, 2)
			for i, in := range []struct {
				name string
				g    *graph.CSR
			}{
				{"original", cfg.hv15r()},
				{"RCM", cfg.rcmOf("hv15r-analogue", cfg.hv15r())},
			} {
				res, err := cfg.match("hv15r-"+in.name, in.g, p, matching.NSR, true)
				if err != nil {
					return nil, err
				}
				grids[i] = MatrixDensity(res.Report.ByteMatrix(), min(24, p))
			}
			t := &Table{ID: "fig9", Title: fmt.Sprintf("byte volume matrices on %d processes (sender rows, receiver cols)", p),
				Headers: []string{"original", "RCM"}}
			for i := range grids[0] {
				t.AddRow(grids[0][i], grids[1][i])
			}
			t.Notes = append(t.Notes, "expected shape: RCM concentrates volume near the diagonal band")
			tables = append(tables, t)
			return tables, nil
		},
	})
}
