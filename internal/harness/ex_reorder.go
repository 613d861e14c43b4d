package harness

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/order"
)

// densityGrid sums the cells of an n x n matrix, visited through each,
// into at most buckets x buckets blocks and renders them as text rows,
// one glyph per block: blank for an empty block, then '.' to '@' as the
// block nears the heaviest (the paper's black-spots-are-zero rendering).
func densityGrid(n, buckets int, each func(add func(i, j int, v int64))) []string {
	if n == 0 {
		return nil
	}
	buckets = min(buckets, n)
	grid := make([][]int64, buckets)
	for i := range grid {
		grid[i] = make([]int64, buckets)
	}
	var top int64
	each(func(i, j int, v int64) {
		cell := &grid[i*buckets/n][j*buckets/n]
		*cell += v
		top = max(top, *cell)
	})
	levels := []byte{'.', ':', '*', '#', '@'}
	rows := make([]string, buckets)
	for i, r := range grid {
		line := make([]byte, len(r))
		for j, v := range r {
			line[j] = ' '
			if v != 0 {
				line[j] = levels[min(int(int64(len(levels))*v/(top+1)), len(levels)-1)]
			}
		}
		rows[i] = "|" + string(line) + "|"
	}
	return rows
}

// adjacencyDensity renders the adjacency matrix of g as a density grid
// of at most buckets x buckets cells (the paper's Fig 7 spy plots).
func adjacencyDensity(g *graph.CSR, buckets int) []string {
	return densityGrid(g.NumVertices(), buckets, func(add func(i, j int, v int64)) {
		for v := 0; v < g.NumVertices(); v++ {
			for _, a := range g.Neighbors(v) {
				add(v, int(a), 1)
			}
		}
	})
}

// MatrixDensity renders a per-pair communication matrix as a density
// grid of at most buckets x buckets cells (Figs 2, 9, 11); with buckets
// = len(m) each cell is one rank pair.
func MatrixDensity(m [][]int64, buckets int) []string {
	return densityGrid(len(m), buckets, func(add func(i, j int, v int64)) {
		for i := range m {
			for j, v := range m[i] {
				add(i, j, v)
			}
		}
	})
}

// rcmOf memoizes the RCM-reordered version of a named workload.
func (c Config) rcmOf(name string, g *graph.CSR) *graph.CSR {
	return c.memo(name+"-rcm", func() *graph.CSR {
		return order.Apply(g, order.RCM(g))
	})
}

// orderTable tabulates a distribution statistic of each reordering-study
// mesh at its process count, in its original order and then under RCM
// (tab5, tab6).
func (c Config) orderTable(id, title string, headers []string, stats func(d *distgraph.Dist) []string) *Table {
	t := &Table{ID: id, Title: title, Headers: append([]string{"graph", "p", "order"}, headers...)}
	for _, in := range []struct {
		name string
		g    *graph.CSR
		p    int
	}{
		{"cage15-analogue", c.cage15(), c.scaledProcs(32)},
		{"hv15r-analogue", c.hv15r(), c.scaledProcs(64)},
	} {
		for i, g := range []*graph.CSR{in.g, c.rcmOf(in.name, in.g)} {
			row := []string{in.name, fmt.Sprint(in.p), []string{"original", "RCM"}[i]}
			t.AddRow(append(row, stats(distgraph.NewBlockDist(g, in.p))...)...)
		}
	}
	return t
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
			t := cfg.orderTable("tab5", "|E'| statistics, original vs RCM", []string{"|E'|", "|E'|max", "|E'|avg", "sigma"},
				func(d *distgraph.Dist) []string {
					st := d.GhostEdgeStats()
					return []string{fmt.Sprint(st.Total), fmt.Sprint(st.Max), f2(st.Avg), f2(st.Sigma)}
				})
			t.Notes = append(t.Notes, "expected shape: RCM rows have clearly smaller sigma and |E'|max")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "tab6",
		Title: "Process-graph topology of original vs RCM orderings",
		Paper: "counter-intuitively, RCM raises davg ~2x under 1-D partitioning (more, smaller neighbor exchanges)",
		Run: func(cfg Config) ([]*Table, error) {
			t := cfg.orderTable("tab6", "Neighborhood topology, original vs RCM", []string{"|Ep|", "dmax", "davg", "sigma_d"},
				func(d *distgraph.Dist) []string {
					st := d.ProcessGraphStats()
					return []string{fmt.Sprint(st.Edges), fmt.Sprint(st.DMax), f2(st.DAvg), f2(st.DSigma)}
				})
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
					reps, err := cfg.sweep("fig8", in.name, in.g, p, models)
					if err != nil {
						return nil, err
					}
					row := []string{in.name}
					var nsr float64
					best := reps[0].MaxVirtualTime
					for i, rep := range reps {
						if models[i] == matching.NSR {
							nsr = rep.MaxVirtualTime
						}
						best = min(best, rep.MaxVirtualTime)
						row = append(row, ms(rep.MaxVirtualTime))
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
