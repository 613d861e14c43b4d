// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V), one benchmark per artifact, plus ablation benches for
// the design choices called out in DESIGN.md §6.
//
// The artifact benches drive the same experiment registry as
// cmd/matchbench, at a reduced workload scale so a full `go test
// -bench=. -benchmem` stays tractable; run `matchbench -exp <id>` for
// the full-scale tables. Each bench reports the modeled execution times
// of the communication models as custom metrics (model-ms/op), which are
// the quantities the paper plots.
package repro_test

import (
	"io"
	"testing"
	"time"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// benchCfg is the reduced-scale harness configuration for benchmarks.
func benchCfg() harness.Config {
	cfg := harness.DefaultConfig()
	cfg.Scale = 0.25
	cfg.Deadline = 5 * time.Minute
	return cfg
}

// runExperiment executes one registry experiment per iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := harness.RunOne(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2CommMatrix(b *testing.B)        { runExperiment(b, "fig2") }
func BenchmarkFig4aWeakScalingRGG(b *testing.B)   { runExperiment(b, "fig4a") }
func BenchmarkFig4bWeakScalingRMAT(b *testing.B)  { runExperiment(b, "fig4b") }
func BenchmarkFig4cWeakScalingSBP(b *testing.B)   { runExperiment(b, "fig4c") }
func BenchmarkTab3ProcessGraphSBP(b *testing.B)   { runExperiment(b, "tab3") }
func BenchmarkFig5StrongScalingKmer(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6StrongScalingSocial(b *testing.B) {
	runExperiment(b, "fig6")
}
func BenchmarkTab4ProcessGraphSocial(b *testing.B) { runExperiment(b, "tab4") }
func BenchmarkFig7AdjacencyRCM(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkTab5GhostEdgesRCM(b *testing.B)      { runExperiment(b, "tab5") }
func BenchmarkTab6TopologyRCM(b *testing.B)        { runExperiment(b, "tab6") }
func BenchmarkFig8Reordering(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9CommVolumeRCM(b *testing.B)      { runExperiment(b, "fig9") }
func BenchmarkTab7BestSpeedup(b *testing.B)        { runExperiment(b, "tab7") }
func BenchmarkFig10Profiles(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkTab8Energy(b *testing.B)             { runExperiment(b, "tab8") }
func BenchmarkFig11CommVolume(b *testing.B)        { runExperiment(b, "fig11") }

// benchModels runs each communication model once per iteration on g and
// reports the modeled times as per-model metrics.
func benchModels(b *testing.B, g *graph.CSR, procs int, models []matching.Model) {
	b.Helper()
	sums := make([]float64, len(models))
	for i := 0; i < b.N; i++ {
		for k, m := range models {
			res, err := matching.Run(g, matching.Options{Procs: procs, Model: m, Deadline: 5 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			sums[k] += res.Report.MaxVirtualTime
		}
	}
	for k, m := range models {
		b.ReportMetric(sums[k]*1e3/float64(b.N), m.String()+"-ms/op")
	}
}

// BenchmarkModelComparisonSocial is the headline comparison: all four
// models on a social graph at moderate scale (paper Fig 6 regime).
func BenchmarkModelComparisonSocial(b *testing.B) {
	g := gen.Social(20000, 10, 5)
	benchModels(b, g, 16, matching.Models)
}

// BenchmarkModelComparisonRGG covers the bounded-neighborhood regime
// (paper Fig 4a): aggregation should win decisively.
func BenchmarkModelComparisonRGG(b *testing.B) {
	n := 24000
	g := gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 6)
	benchModels(b, g, 16, []matching.Model{matching.NSR, matching.RMA, matching.NCL})
}

// BenchmarkModelComparisonSBP covers the dense-process-graph regime
// (paper Fig 4c): Send-Recv should win.
func BenchmarkModelComparisonSBP(b *testing.B) {
	g := gen.SBP(11200, 75, 12, 0.55, 7)
	benchModels(b, g, 16, []matching.Model{matching.NSR, matching.RMA, matching.NCL})
}

// BenchmarkAblationAggregation isolates the value of message aggregation:
// the same protocol traffic sent as one message per record (NSR) versus
// aggregated per neighbor per round (NCL), on a volume-heavy input.
func BenchmarkAblationAggregation(b *testing.B) {
	g := gen.Social(30000, 10, 8)
	benchModels(b, g, 16, []matching.Model{matching.NSR, matching.NCL})
}

// BenchmarkAblationTieBreak shows why hashed tie-breaking matters
// (paper §III-A): on a path with adversarially ordered weights the
// locally-dominant cascade serializes into a cross-rank chain, while
// hashed ties on a uniform-weight path keep the round count flat.
func BenchmarkAblationTieBreak(b *testing.B) {
	const n, procs = 4000, 16
	// Adversarial: strictly increasing weights force a single chain from
	// the heavy end down.
	adv := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		adv.AddEdge(i, i+1, float64(i+1))
	}
	chain := adv.Build()
	uniform := gen.Path(n) // equal weights; hash breaks ties locally
	var chainRounds, uniformRounds int
	for i := 0; i < b.N; i++ {
		r1, err := matching.Run(chain, matching.Options{Procs: procs, Model: matching.NCL, Deadline: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := matching.Run(uniform, matching.Options{Procs: procs, Model: matching.NCL, Deadline: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		chainRounds, uniformRounds = r1.Rounds, r2.Rounds
	}
	b.ReportMetric(float64(chainRounds), "ordered-weights-rounds")
	b.ReportMetric(float64(uniformRounds), "hashed-ties-rounds")
	if chainRounds <= uniformRounds {
		b.Fatalf("expected ordered weights (%d rounds) to serialize beyond hashed ties (%d rounds)", chainRounds, uniformRounds)
	}
}

// BenchmarkAblationEagerReject compares the default Manne-Bisseling
// protocol against the paper's literal Algorithm 6 (reject-on-sight):
// eager rejection can trade matching weight for fewer rounds.
func BenchmarkAblationEagerReject(b *testing.B) {
	g := gen.Social(20000, 10, 9)
	ld := matching.Serial(g).Weight
	var tMB, tEager, wEager float64
	for i := 0; i < b.N; i++ {
		r1, err := matching.Run(g, matching.Options{Procs: 16, Model: matching.NCL, Deadline: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := matching.Run(g, matching.Options{Procs: 16, Model: matching.NCL, EagerReject: true, Deadline: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		tMB += r1.Report.MaxVirtualTime
		tEager += r2.Report.MaxVirtualTime
		wEager = r2.Weight
	}
	b.ReportMetric(tMB*1e3/float64(b.N), "manne-bisseling-ms/op")
	b.ReportMetric(tEager*1e3/float64(b.N), "eager-reject-ms/op")
	b.ReportMetric(100*wEager/ld, "eager-weight-pct")
}

// BenchmarkAblationCostSensitivity sweeps the neighborhood-collective
// per-neighbor cost to locate the NSR/NCL crossover on a dense-process-
// graph input — the calibration DESIGN.md documents.
func BenchmarkAblationCostSensitivity(b *testing.B) {
	g := gen.SBP(11200, 75, 12, 0.55, 10)
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{0.25, 1.0, 4.0} {
			cost := mpi.DefaultCostModel()
			cost.AlphaNbr *= f
			cost.AlphaNbrCall *= f
			res, err := matching.Run(g, matching.Options{Procs: 16, Model: matching.NCL, Cost: cost, Deadline: 5 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Report.MaxVirtualTime*1e3, "ncl-alpha-x"+trim(f)+"-ms")
			}
		}
	}
}

func trim(f float64) string {
	switch f {
	case 0.25:
		return "0.25"
	case 1.0:
		return "1"
	case 4.0:
		return "4"
	}
	return "?"
}

// BenchmarkEnergyModel exercises the Table VIII pipeline end to end.
func BenchmarkEnergyModel(b *testing.B) {
	g := gen.Social(16000, 10, 11)
	for i := 0; i < b.N; i++ {
		res, err := matching.Run(g, matching.Options{Procs: 16, Model: matching.NCL, Deadline: 5 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		rep := metrics.DefaultEnergyModel().Evaluate(res.Report, nil)
		if rep.EnergyKJ <= 0 {
			b.Fatal("nonpositive energy")
		}
	}
}

// BenchmarkExtensionNonblockingNCL compares the paper's blocking
// neighborhood collectives against the pipelined nonblocking variant
// (model NCLI) this repository adds: double-buffered rounds hide
// transfer latency behind protocol processing.
func BenchmarkExtensionNonblockingNCL(b *testing.B) {
	g := gen.Social(30000, 10, 12)
	benchModels(b, g, 16, []matching.Model{matching.NCL, matching.NCLI})
}

// BenchmarkExtensionColoring exercises the second owner-computes
// application (Jones-Plassmann coloring) under the three primary models.
func BenchmarkExtensionColoring(b *testing.B) {
	g := gen.Social(12000, 10, 13)
	models := []matching.Model{matching.NSR, matching.RMA, matching.NCL}
	sums := make([]float64, len(models))
	for i := 0; i < b.N; i++ {
		for k, m := range models {
			res, err := coloring.Run(g, coloring.Options{Procs: 16, Model: m, Deadline: 5 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			sums[k] += res.Report.MaxVirtualTime
		}
	}
	for k, m := range models {
		b.ReportMetric(sums[k]*1e3/float64(b.N), m.String()+"-ms/op")
	}
}
