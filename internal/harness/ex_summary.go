package harness

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

func init() {
	register(&Experiment{
		ID:    "tab7",
		Title: "Best speedup over the Send-Recv baseline per input",
		Paper: "best variants: NCL 2-6x (RGG, cage15, HV15R, Orkut), RMA 1.4-4.45x (k-mer, Friendster, larger R-MAT)",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "tab7", Title: "Versions yielding the best performance over NSR",
				Headers: []string{"category", "input", "best speedup", "version"}}
			type input struct {
				cat, name string
				g         *graph.CSR
				procs     []int
			}
			std := []int{cfg.scaledProcs(16), cfg.scaledProcs(32)}
			inputs := []input{
				{"RGG", "rgg-weak", cfg.rggWeak(cfg.scaledProcs(16)), std},
				{"Graph500", "rmat-weak", cfg.rmatWeak(cfg.scaledProcs(16)), std},
				{"Social", "orkut", cfg.orkut(), std},
				{"Social", "friendster", cfg.friendster(), std},
				{"Mesh", "cage15(RCM)", cfg.rcmOf("cage15-analogue", cfg.cage15()), std},
				{"Mesh", "hv15r(RCM)", cfg.rcmOf("hv15r-analogue", cfg.hv15r()), std},
			}
			for _, k := range cfg.kmerInputs() {
				inputs = append(inputs, input{"K-mer", k.Name, k.G, std})
			}
			for _, in := range inputs {
				best, bestName := 0.0, "-"
				for _, p := range in.procs {
					cfg.logf("tab7: %s p=%d", in.name, p)
					var nsr float64
					for _, m := range cfg.models(scalingModels) {
						res, err := cfg.match(in.name, in.g, p, m, false)
						if err != nil {
							return nil, fmt.Errorf("%s/%v: %w", in.name, m, err)
						}
						tm := res.Report.MaxVirtualTime
						if m == matching.NSR {
							nsr = tm
							continue
						}
						if s := nsr / tm; s > best {
							best, bestName = s, m.String()
						}
					}
				}
				t.AddRow(in.cat, in.name, fmt.Sprintf("%.2fx", best), bestName)
			}
			t.Notes = append(t.Notes, "expected shape: every non-SBP input has best speedup > 1 with RMA or NCL winning")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig10",
		Title: "Performance profiles of NSR/RMA/NCL over the input suite",
		Paper: "RMA consistently best, NCL close behind, NSR up to 6x slower yet competitive on ~10% of inputs",
		Run: func(cfg Config) ([]*Table, error) {
			models := cfg.models(scalingModels)
			times := map[string][]float64{}
			for _, m := range models {
				times[m.String()] = nil
			}
			count := 0
			for _, in := range cfg.profileInputs() {
				for _, p := range []int{cfg.scaledProcs(8), cfg.scaledProcs(16), cfg.scaledProcs(32)} {
					cfg.logf("fig10: %s p=%d", in.Name, p)
					for _, m := range models {
						res, err := cfg.match(in.Name, in.G, p, m, false)
						if err != nil {
							return nil, fmt.Errorf("%s/p=%d/%v: %w", in.Name, p, m, err)
						}
						times[m.String()] = append(times[m.String()], res.Report.MaxVirtualTime)
					}
					count++
				}
			}
			curves, err := metrics.Profiles(times)
			if err != nil {
				return nil, err
			}
			t := &Table{ID: "fig10", Title: fmt.Sprintf("performance profiles over %d (input, p) configurations", count),
				Headers: []string{"scheme", "frac@tau=1", "tau=1.25", "tau=1.5", "tau=2", "tau=4", "area(4)"}}
			for _, c := range curves {
				t.AddRow(c.Name,
					f3(c.FracWithin(1)), f3(c.FracWithin(1.25)), f3(c.FracWithin(1.5)),
					f3(c.FracWithin(2)), f3(c.FracWithin(4)), f3(c.AreaScore(4)))
			}
			t.Notes = append(t.Notes, "expected shape: RMA/NCL curves hug the left axis; NSR wins a small fraction (the SBP-like cases)")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "tab8",
		Title: "Power, energy and memory usage per communication model",
		Paper: "NCL lowest memory (1.03-2.3x below NSR); NSR burns ~4x the energy of NCL/RMA on Friendster; RMA/NCL show higher MPI%% due to the global exit reduction",
		Run: func(cfg Config) ([]*Table, error) {
			em := metrics.DefaultEnergyModel()
			em.CoresPerNode = max(2, cfg.scaledProcs(32))
			t := &Table{ID: "tab8", Title: "Power/energy and memory on " + fmt.Sprint(cfg.scaledProcs(32)) + " processes",
				Headers: []string{"input", "ver", "mem(MB/proc)", "energy(kJ)", "power(kW)", "comp%", "mpi%", "EDP"}}
			p := cfg.scaledProcs(32)
			for _, in := range []struct {
				name string
				g    *graph.CSR
			}{
				{"friendster-analogue", cfg.friendster()},
				{"sbp", cfg.sbpWeak(cfg.scaledProcs(16))},
				{"hv15r-analogue", cfg.hv15r()},
			} {
				d := distgraph.NewBlockDist(in.g, p)
				extra := make([]int64, p)
				for r := 0; r < p; r++ {
					extra[r] = d.BuildLocal(r).MemoryModelBytes()
				}
				for _, m := range cfg.models(scalingModels) {
					cfg.logf("tab8: %s %v", in.name, m)
					res, err := cfg.match(in.name, in.g, p, m, false)
					if err != nil {
						return nil, err
					}
					rep := em.Evaluate(res.Report, extra)
					t.AddRow(in.name, m.String(), f2(rep.MemMBPerProc), fmt.Sprintf("%.4g", rep.EnergyKJ),
						fmt.Sprintf("%.4g", rep.AvgPowerKW), f2(rep.CompPct), f2(rep.MPIPct), fmt.Sprintf("%.3g", rep.EDP))
				}
			}
			t.Notes = append(t.Notes,
				"expected shape: NSR rows carry the largest memory (eager queue high-water) on social inputs;",
				"energy tracks runtime, so whichever model wins fig4-6 wins here; RMA/NCL mpi%% exceeds NSR's")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig2",
		Title: "Send-Recv invocation matrices: matching vs Graph500 BFS",
		Paper: "matching traffic is denser and less structured than BFS's frontier exchanges on the same R-MAT input",
		Run: func(cfg Config) ([]*Table, error) {
			return commMatrixTables(cfg, "fig2", false)
		},
	})

	register(&Experiment{
		ID:    "fig11",
		Title: "Byte-volume matrices: matching vs Graph500 BFS",
		Paper: "matching exhibits dynamic, unpredictable volume versus BFS's level-synchronous pattern",
		Run: func(cfg Config) ([]*Table, error) {
			return commMatrixTables(cfg, "fig11", true)
		},
	})
}

// commMatrixTables renders matching-vs-BFS communication matrices; bytes
// selects byte volume (fig11, both sides on one R-MAT input) versus
// message counts (fig2, which like the paper profiles matching on the
// Friendster analogue against Graph500 BFS on R-MAT).
func commMatrixTables(cfg Config, id string, bytes bool) ([]*Table, error) {
	p := cfg.scaledProcs(32)
	g := cfg.rmatWeak(cfg.scaledProcs(16))
	mg, mname := g, "rmat-weak"
	if !bytes {
		mg, mname = cfg.friendster(), "Friendster-analogue"
	}
	mres, err := cfg.match(mname, mg, p, matching.NSR, true)
	if err != nil {
		return nil, err
	}
	bopts := cfg.runOptions(p)
	bopts.TrackMatrices = true
	bres, err := bfs.Run(g, 0, bopts)
	if err != nil {
		return nil, err
	}
	cfg.observe(fmt.Sprintf("rmat-weak BFS p=%d |V|=%d", p, g.NumVertices()), "bfs", "rmat-weak", "", g, p, bres.Outcome)
	pick := (*mpi.Report).MsgMatrix
	unit := "messages"
	if bytes {
		pick = (*mpi.Report).ByteMatrix
		unit = "bytes"
	}
	a := MatrixDensity(pick(mres.Report), min(24, p))
	b := MatrixDensity(pick(bres.Report), min(24, p))
	t := &Table{ID: id, Title: fmt.Sprintf("%s exchanged on %d processes, matching |E|=%d vs BFS |E|=%d (left: matching, right: BFS)", unit, p, mg.NumEdges(), g.NumEdges()),
		Headers: []string{"half-approx matching", "Graph500 BFS"}}
	for i := range a {
		t.AddRow(a[i], b[i])
	}
	mt, bt := mres.Report.Totals(), bres.Report.Totals()
	t.AddRow(fmt.Sprintf("msgs=%d bytes=%d", mt.Msgs, mt.Bytes), fmt.Sprintf("msgs=%d bytes=%d", bt.Msgs, bt.Bytes))
	t.Notes = append(t.Notes, "expected shape: both dense for R-MAT, but matching's mass is distributed irregularly while BFS concentrates along frontier waves")
	return []*Table{t}, nil
}
