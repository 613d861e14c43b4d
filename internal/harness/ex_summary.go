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
			}
			inputs := []input{
				{"RGG", "rgg-weak", cfg.rggWeak(cfg.scaledProcs(16))},
				{"Graph500", "rmat-weak", cfg.rmatWeak(cfg.scaledProcs(16))},
				{"Social", "orkut", cfg.orkut()},
				{"Social", "friendster", cfg.friendster()},
				{"Mesh", "cage15(RCM)", cfg.rcmOf("cage15-analogue", cfg.cage15())},
				{"Mesh", "hv15r(RCM)", cfg.rcmOf("hv15r-analogue", cfg.hv15r())},
			}
			for _, k := range cfg.kmerInputs() {
				inputs = append(inputs, input{"K-mer", k.Name, k.G})
			}
			models := cfg.models(scalingModels)
			for _, in := range inputs {
				// The best ratio over NSR, if NSR ran: the filter keeps
				// the default order, so it ran first or not at all.
				best, cell, bestName := 0.0, "-", "-"
				for _, p := range []int{cfg.scaledProcs(16), cfg.scaledProcs(32)} {
					reps, err := cfg.sweep("tab7", in.name, in.g, p, models)
					if err != nil {
						return nil, err
					}
					for i, rep := range reps[1:] {
						if s := reps[0].MaxVirtualTime / rep.MaxVirtualTime; models[0] == matching.NSR && s > best {
							best, cell, bestName = s, fmt.Sprintf("%.2fx", s), models[i+1].String()
						}
					}
				}
				t.AddRow(in.cat, in.name, cell, bestName)
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
			count := 0
			for _, in := range cfg.profileInputs() {
				for _, p := range []int{cfg.scaledProcs(8), cfg.scaledProcs(16), cfg.scaledProcs(32)} {
					reps, err := cfg.sweep("fig10", in.Name, in.G, p, models)
					if err != nil {
						return nil, err
					}
					for i, rep := range reps {
						times[models[i].String()] = append(times[models[i].String()], rep.MaxVirtualTime)
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
			p, models := cfg.scaledProcs(32), cfg.models(scalingModels)
			em := metrics.DefaultEnergyModel()
			em.CoresPerNode = max(2, p)
			t := &Table{ID: "tab8", Title: "Power/energy and memory on " + fmt.Sprint(p) + " processes",
				Headers: []string{"input", "ver", "mem(MB/proc)", "energy(kJ)", "power(kW)", "comp%", "mpi%", "EDP"}}
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
				reps, err := cfg.sweep("tab8", in.name, in.g, p, models)
				if err != nil {
					return nil, err
				}
				for i, rep := range reps {
					ev := em.Evaluate(rep, extra)
					t.AddRow(in.name, models[i].String(), f2(ev.MemMBPerProc), fmt.Sprintf("%.4g", ev.EnergyKJ),
						fmt.Sprintf("%.4g", ev.AvgPowerKW), f2(ev.CompPct), f2(ev.MPIPct), fmt.Sprintf("%.3g", ev.EDP))
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
