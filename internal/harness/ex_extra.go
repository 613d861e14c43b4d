package harness

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/matching"
)

// Supplementary experiments: the dataset inventory (paper Table II) and
// the repository's extension beyond the paper (nonblocking neighborhood
// collectives).

func init() {
	register(&Experiment{
		ID:    "tab2",
		Title: "Dataset inventory: this repository's analogues of the paper's inputs",
		Paper: "Table II lists RGG (6.6-27.7B edges), Graph500 scale 21-24, SBP HILO, protein k-mer V2a/U1a/P1a/V1r, Cage15, HV15R, Orkut, Friendster",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "tab2", Title: "Synthetic analogues used for evaluation (scale factor applied)",
				Headers: []string{"category", "identifier", "|V|", "|E|", "components", "paper counterpart"}}
			add := func(cat, name string, g *graph.CSR, paper string) {
				_, comps := g.ConnectedComponents()
				t.AddRow(cat, name, fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges()), fmt.Sprint(comps), paper)
			}
			p16 := cfg.scaledProcs(16)
			add("RGG", "rgg-weak", cfg.rggWeak(p16), "d=8.56E-05 .. 4.37E-05 (6.6B-27.7B edges)")
			add("Graph500 R-MAT", "rmat-weak", cfg.rmatWeak(p16), "scale 21-24 (33.5M-268M edges)")
			add("SBP HILO", "sbp-weak", cfg.sbpWeak(p16), "1M-20M vertices, 23.7M-475M edges")
			for _, k := range cfg.kmerInputs() {
				add("Protein k-mer", k.Name, k.G, "V2a 117M / U1a 139M / P1a 298M / V1r 465M edges")
			}
			add("DNA", "cage15-analogue", cfg.cage15(), "Cage15: 5.15M vertices, 99.2M edges")
			add("CFD", "hv15r-analogue", cfg.hv15r(), "HV15R: 2.01M vertices, 283M edges")
			add("Social", "orkut-analogue", cfg.orkut(), "Orkut: 3M vertices, 117.1M edges")
			add("Social", "friendster-analogue", cfg.friendster(), "Friendster: 65.6M vertices, 1.8B edges")
			t.Notes = append(t.Notes, "sizes are ~1000x below the paper's; the structural character of each family is preserved (DESIGN.md §2)")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "ext-ncli",
		Title: "Extension: blocking vs nonblocking (pipelined) neighborhood collectives",
		Paper: "beyond the paper — its related work (Kandalla et al.) asks whether nonblocking neighborhood collectives can hide communication; NCLI answers for matching",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "ext-ncli", Title: "NCL vs NCLI across input regimes",
				Headers: []string{"input", "p", "NCL", "NCLI", "NCLI/NCL"}}
			for _, in := range []struct {
				name string
				g    *graph.CSR
			}{
				{"friendster-analogue", cfg.friendster()},
				{"sbp-weak", cfg.sbpWeak(cfg.scaledProcs(16))},
				{"rgg-weak", cfg.rggWeak(cfg.scaledProcs(16))},
			} {
				for _, p := range []int{cfg.scaledProcs(16), cfg.scaledProcs(32)} {
					reps, err := cfg.sweep("ext-ncli", in.name, in.g, p, []matching.Model{matching.NCL, matching.NCLI})
					if err != nil {
						return nil, err
					}
					ncl, ncli := reps[0].MaxVirtualTime, reps[1].MaxVirtualTime
					t.AddRow(in.name, fmt.Sprint(p), ms(ncl), ms(ncli), speedup(ncl, ncli))
				}
			}
			t.Notes = append(t.Notes, "expected shape: NCLI at least matches NCL when per-round volume is high (overlap pays); near parity when rounds are cheap")
			return []*Table{t}, nil
		},
	})
}

// init registers the second-application experiment: the same four
// communication models driving distributed Jones-Plassmann coloring,
// demonstrating the paper's closing claim that the communication
// substrate "can be applied to any graph algorithm imitating the
// owner-computes model" (§IV-D).
func init() {
	register(&Experiment{
		ID:    "ext-coloring",
		Title: "Extension: the communication models on a second owner-computes algorithm (greedy coloring)",
		Paper: "beyond the paper's evaluation — §IV-D asserts the substrate generalizes; ref [5] treats matching and coloring together",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "ext-coloring", Title: "Jones-Plassmann coloring under each model",
				Headers: []string{"input", "p", "colors", "NSR", "RMA", "NCL", "best/NSR"}}
			for _, in := range []struct {
				name string
				g    *graph.CSR
			}{
				{"social", cfg.orkut()},
				{"rgg", cfg.rggWeak(cfg.scaledProcs(16))},
			} {
				for _, p := range []int{cfg.scaledProcs(16), cfg.scaledProcs(32)} {
					cfg.logf("ext-coloring: %s p=%d", in.name, p)
					var times [3]float64
					var colors int
					for i, m := range scalingModels {
						opts := cfg.runOptions(p)
						opts.Model = m
						res, err := coloring.Run(in.g, opts)
						if err != nil {
							return nil, fmt.Errorf("%s/%v: %w", in.name, m, err)
						}
						cfg.observe(fmt.Sprintf("coloring %s %v p=%d |V|=%d", in.name, m, p, in.g.NumVertices()),
							"coloring", in.name, m.String(), in.g, p, res.Outcome)
						times[i] = res.Report.MaxVirtualTime
						colors = res.Colors
					}
					best := times[0]
					for _, tm := range times[1:] {
						if tm < best {
							best = tm
						}
					}
					t.AddRow(in.name, fmt.Sprint(p), fmt.Sprint(colors),
						ms(times[0]), ms(times[1]), ms(times[2]), speedup(times[0], best))
				}
			}
			t.Notes = append(t.Notes, "expected shape: the same volume-vs-degree trade-offs as matching, on an independent algorithm")
			return []*Table{t}, nil
		},
	})
}
