package harness

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/driver"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
)

// runOptions are the run knobs a launch on p ranks takes from the
// Config: cost, deadline, tracing, round logs and perturbation. Every
// launch starts from them.
func (c Config) runOptions(p int) driver.Options {
	return driver.Options{
		Procs: p, Cost: c.Cost, Deadline: c.Deadline, TraceEvents: c.TraceEvents,
		RoundLog: c.Rounds, Perturb: c.Perturb, PerturbSeed: c.PerturbSeed,
	}
}

// matchOptions are runOptions for a matching launch of model m under
// the Config's engine; match and matchMaximal start from them.
func (c Config) matchOptions(p int, m matching.Model) matching.Options {
	o := c.runOptions(p)
	return matching.Options{
		Procs: o.Procs, Model: m, Engine: c.Engine, Cost: o.Cost, Deadline: o.Deadline,
		TraceEvents: o.TraceEvents, RoundLog: o.RoundLog, Perturb: o.Perturb, PerturbSeed: o.PerturbSeed,
	}
}

// match runs one distributed matching configuration on the named input
// and returns the result (with virtual time in Report.MaxVirtualTime).
// Successful runs are reported to Config.OnRun for trace, profile and
// record collection.
func (c Config) match(input string, g *graph.CSR, p int, m matching.Model, trackMatrices bool) (*matching.ParallelResult, error) {
	opt := c.matchOptions(p, m)
	opt.TrackMatrices = trackMatrices
	res, err := matching.Run(g, opt)
	if err != nil {
		return nil, err
	}
	c.observe(fmt.Sprintf("%s %v p=%d |V|=%d", input, m, p, g.NumVertices()), "matching", input, m.String(), g, p, res.Outcome)
	return res, nil
}

// sweep runs each model in turn on one (input, graph, p) configuration
// and returns their reports in model order. Every table that compares
// models tabulates from it, so each cell of the input x procs x model
// grid is launched, labelled and reported in one place.
func (c Config) sweep(id, input string, g *graph.CSR, p int, models []matching.Model) ([]*mpi.Report, error) {
	c.logf("%s: %s p=%d |E|=%d", id, input, p, g.NumEdges())
	reps := make([]*mpi.Report, len(models))
	for i, m := range models {
		res, err := c.match(input, g, p, m, false)
		if err != nil {
			return nil, fmt.Errorf("%s p=%d %v: %w", input, p, m, err)
		}
		reps[i] = res.Report
	}
	return reps, nil
}

// scalingTable runs the given models over (graph(p), p) pairs and emits
// one row per p: |E|, per-model virtual time, and speedups over the
// first model (NSR by default).
func (c Config) scalingTable(id, title, input string, procs []int, graphOf func(p int) *graph.CSR, models []matching.Model) (*Table, error) {
	models = c.models(models)
	t := &Table{ID: id, Title: title}
	t.Headers = []string{"procs", "|V|", "|E|"}
	for _, m := range models {
		t.Headers = append(t.Headers, m.String())
	}
	for _, m := range models[1:] {
		t.Headers = append(t.Headers, m.String()+"/"+models[0].String())
	}
	for _, p := range procs {
		g := graphOf(p)
		reps, err := c.sweep(id, input, g, p, models)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprint(p), fmt.Sprint(g.NumVertices()), fmt.Sprint(g.NumEdges())}
		for _, rep := range reps {
			row = append(row, ms(rep.MaxVirtualTime))
		}
		for _, rep := range reps[1:] {
			row = append(row, speedup(reps[0].MaxVirtualTime, rep.MaxVirtualTime))
		}
		t.AddRow(row...)
	}
	return t, nil
}

var scalingModels = []matching.Model{matching.NSR, matching.RMA, matching.NCL}

func init() {
	register(&Experiment{
		ID:    "fig4a",
		Title: "Weak scaling of NSR/RMA/NCL on random geometric graphs",
		Paper: "RGG strips bound each rank's neighborhood to <=2; NCL and RMA run 2-3.5x faster than NSR on 4K-16K processes",
		Run: func(cfg Config) ([]*Table, error) {
			t, err := cfg.scalingTable("fig4a", "RGG weak scaling (strip distribution, <=2 process neighbors)", "rgg-weak",
				[]int{cfg.scaledProcs(8), cfg.scaledProcs(16), cfg.scaledProcs(32)}, cfg.rggWeak, scalingModels)
			if err != nil {
				return nil, err
			}
			d := distgraph.NewBlockDist(cfg.rggWeak(cfg.scaledProcs(16)), cfg.scaledProcs(16))
			t.Notes = append(t.Notes,
				"expected shape: NCL/RMA several times faster than NSR, gap widening with p",
				"process graph at middle p: "+d.ProcessGraphStats().String())
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig4b",
		Title: "Weak scaling on Graph500 R-MAT graphs",
		Paper: "RMA and NCL achieve 1.2-3x speedup over NSR for scale 21-24 R-MAT on 512-4K processes",
		Run: func(cfg Config) ([]*Table, error) {
			t, err := cfg.scalingTable("fig4b", "Graph500 R-MAT weak scaling", "rmat-weak",
				[]int{cfg.scaledProcs(8), cfg.scaledProcs(16), cfg.scaledProcs(32), cfg.scaledProcs(64)}, cfg.rmatWeak, scalingModels)
			if err != nil {
				return nil, err
			}
			t.Notes = append(t.Notes, "expected shape: RMA/NCL 1.2-3x over NSR")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig4c",
		Title: "Weak scaling on stochastic block-partitioned (HILO) graphs",
		Paper: "contrasting case: NSR beats NCL/RMA by 1.5-2.7x because the process graph is near-complete (Table III)",
		Run: func(cfg Config) ([]*Table, error) {
			t, err := cfg.scalingTable("fig4c", "Stochastic block partition weak scaling (NSR wins)", "sbp-weak",
				[]int{cfg.scaledProcs(16), cfg.scaledProcs(32), cfg.scaledProcs(64)}, cfg.sbpWeak, scalingModels)
			if err != nil {
				return nil, err
			}
			t.Notes = append(t.Notes, "expected shape: speedup columns < 1 (NSR fastest)")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "tab3",
		Title: "Process-graph topology statistics for the SBP inputs",
		Paper: "dmax = davg = p-1: every rank neighbors every other (|Ep| grows ~quadratically)",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "tab3", Title: "SBP neighborhood graph topology",
				Headers: []string{"p", "|Ep|", "dmax", "davg", "sigma_d"}}
			for _, p := range []int{cfg.scaledProcs(16), cfg.scaledProcs(32), cfg.scaledProcs(64)} {
				st := distgraph.NewBlockDist(cfg.sbpWeak(p), p).ProcessGraphStats()
				t.AddRow(fmt.Sprint(p), fmt.Sprint(st.Edges), fmt.Sprint(st.DMax), f2(st.DAvg), f2(st.DSigma))
			}
			t.Notes = append(t.Notes, "expected shape: dmax ~= davg ~= p-1 (near-complete process graph)")
			return []*Table{t}, nil
		},
	})

	register(&Experiment{
		ID:    "fig5",
		Title: "Strong scaling on protein k-mer graphs (V2a, U1a, P1a, V1r)",
		Paper: "RMA about 25-35% faster than NSR and NCL; sometimes RMA/NCL 2-3x over NSR",
		Run: func(cfg Config) ([]*Table, error) {
			var tables []*Table
			procs := []int{cfg.scaledProcs(16), cfg.scaledProcs(32), cfg.scaledProcs(64)}
			for _, in := range cfg.kmerInputs() {
				in := in
				t, err := cfg.scalingTable("fig5", fmt.Sprintf("k-mer %s strong scaling (|E|=%d)", in.Name, in.G.NumEdges()),
					in.Name, procs, func(int) *graph.CSR { return in.G }, scalingModels)
				if err != nil {
					return nil, err
				}
				t.Notes = append(t.Notes, "expected shape: RMA best or tied-best at every p")
				tables = append(tables, t)
			}
			return tables, nil
		},
	})

	register(&Experiment{
		ID:    "fig6",
		Title: "Strong scaling on social networks (Orkut, Friendster analogues)",
		Paper: "2-5x speedup for NCL/RMA at 1-2K processes, degrading at scale as |E'| and process-graph degree explode (Table IV)",
		Run: func(cfg Config) ([]*Table, error) {
			var tables []*Table
			inputs := []struct {
				name string
				g    *graph.CSR
			}{
				{"Orkut-analogue", cfg.orkut()},
				{"Friendster-analogue", cfg.friendster()},
			}
			for _, in := range inputs {
				in := in
				t, err := cfg.scalingTable("fig6", fmt.Sprintf("%s strong scaling (|E|=%d)", in.name, in.g.NumEdges()),
					in.name, []int{cfg.scaledProcs(16), cfg.scaledProcs(32), cfg.scaledProcs(64)},
					func(int) *graph.CSR { return in.g }, scalingModels)
				if err != nil {
					return nil, err
				}
				t.Notes = append(t.Notes, "expected shape: NCL/RMA ahead at low p; NCL's edge shrinks as p grows (denser process graph)")
				tables = append(tables, t)
			}
			return tables, nil
		},
	})

	register(&Experiment{
		ID:    "tab4",
		Title: "Process-graph topology statistics for the social networks",
		Paper: "davg within 1% of dmax = p-1; Orkut |E'| grows 14x from 512 to 2048 processes",
		Run: func(cfg Config) ([]*Table, error) {
			t := &Table{ID: "tab4", Title: "Social network neighborhood topology",
				Headers: []string{"input", "p", "|Ep|", "dmax", "davg", "sigma_d"}}
			for _, in := range []struct {
				name string
				g    *graph.CSR
				ps   []int
			}{
				{"Friendster-analogue", cfg.friendster(), []int{cfg.scaledProcs(32), cfg.scaledProcs(64)}},
				{"Orkut-analogue", cfg.orkut(), []int{cfg.scaledProcs(16), cfg.scaledProcs(64)}},
			} {
				for _, p := range in.ps {
					st := distgraph.NewBlockDist(in.g, p).ProcessGraphStats()
					t.AddRow(in.name, fmt.Sprint(p), fmt.Sprint(st.Edges), fmt.Sprint(st.DMax), f2(st.DAvg), f2(st.DSigma))
				}
			}
			t.Notes = append(t.Notes, "expected shape: davg ~= dmax ~= p-1 (hubs connect every pair of blocks)")
			return []*Table{t}, nil
		},
	})
}
