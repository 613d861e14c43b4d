package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/matching"
)

// asyncInput is one workload of the asynchronous-engine comparison.
type asyncInput struct {
	name string
	g    *graph.CSR
}

// skewedAsyncGraph builds a block-partitioned graph where block 0 is far
// denser than the rest: under a block distribution one rank carries most
// of the protocol work — the straggler regime where every rank pays that
// rank's epoch time through the round fence, and where the barrier-free
// engine should win.
func skewedAsyncGraph(n, p, denseDeg, sparseDeg int, seed int64) *graph.CSR {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	blk := n / p // n is a multiple of p, matching NewBlockDist's partition
	addWithin := func(lo, hi, deg int) {
		for v := lo; v < hi; v++ {
			for k := 0; k < deg; k++ {
				u := lo + r.Intn(hi-lo)
				if u != v {
					b.AddEdge(v, u, 1+r.Float64())
				}
			}
		}
	}
	addWithin(0, blk, denseDeg)
	addWithin(blk, n, sparseDeg)
	// A sparse ring of cross-block edges keeps the graph connected so
	// every rank participates in the protocol.
	for v := 0; v+blk < n; v += blk / 2 {
		b.AddEdge(v, v+blk, 1)
	}
	return b.Build()
}

// asyncInputs returns the graph families the asynchronous engine is
// validated and timed on: the paper's two weak-scaling families plus the
// skewed straggler input the barrier-free claim is about.
func (c Config) asyncInputs(p int) []asyncInput {
	return []asyncInput{
		{"mx-rgg", c.rggWeak(p)},
		{"mx-sbp", c.sbpWeak(p)},
		{"mx-skew", c.memo(fmt.Sprintf("mx-skew-%d", p), func() *graph.CSR {
			return skewedAsyncGraph(c.scaled(300)*p, p, 48, 6, 1900+int64(p))
		})},
	}
}

// matchMaximal runs the maximal-matching engine on one configuration,
// verifies maximality (an invalid or non-maximal matching — e.g. from a
// false termination — fails the experiment outright), and reports the
// run with the driver encoded in the model name: "NSR" is the
// barrier-free detector path, "NSR-rounds" the ForceRounds baseline.
func (c Config) matchMaximal(input string, g *graph.CSR, p int, m matching.Model, forceRounds bool) (*matching.ParallelResult, error) {
	opt := c.matchOptions(p, m)
	opt.Engine, opt.ForceRounds = matching.EngineMaximal, forceRounds
	res, err := matching.Run(g, opt)
	if err != nil {
		return nil, err
	}
	if err := matching.VerifyMaximal(g, res.Result); err != nil {
		return nil, fmt.Errorf("%s %v forceRounds=%v: %w", input, m, forceRounds, err)
	}
	model := m.String()
	if forceRounds {
		model += "-rounds"
	}
	c.observe(fmt.Sprintf("%s maximal %s p=%d |V|=%d", input, model, p, g.NumVertices()), "matching", input, model, g, p, res.Outcome)
	return res, nil
}

func init() {
	register(&Experiment{
		ID:    "ext-async",
		Title: "Extension: asynchronous maximal matching (Safra termination detection) vs the round-fenced baseline",
		Paper: "beyond the paper — §III's NSR driver still fences each iteration with a counting allreduce; a fully asynchronous engine with detected (not counted) termination removes the fence, so on straggler-skewed inputs the sparse ranks stop paying the dense rank's epoch time",
		Run: func(cfg Config) ([]*Table, error) {
			p := cfg.scaledProcs(8)
			t := &Table{ID: "ext-async",
				Title:   fmt.Sprintf("asynchronous engine vs round-fenced baseline on %d processes (all matchings verified maximal)", p),
				Headers: []string{"input", "|V|", "|E|", "NSR", "NSRA", "NSR-rounds", "rounds/NSR", "epochs", "fences", "maximal"}}
			for _, in := range cfg.asyncInputs(p) {
				cfg.logf("ext-async: %s p=%d |E|=%d", in.name, p, in.g.NumEdges())
				async, err := cfg.matchMaximal(in.name, in.g, p, matching.NSR, false)
				if err != nil {
					return nil, err
				}
				agg, err := cfg.matchMaximal(in.name, in.g, p, matching.NSRA, false)
				if err != nil {
					return nil, err
				}
				fenced, err := cfg.matchMaximal(in.name, in.g, p, matching.NSR, true)
				if err != nil {
					return nil, err
				}
				t.AddRow(in.name,
					fmt.Sprint(in.g.NumVertices()), fmt.Sprint(in.g.NumEdges()),
					ms(async.Report.MaxVirtualTime), ms(agg.Report.MaxVirtualTime),
					ms(fenced.Report.MaxVirtualTime),
					speedup(fenced.Report.MaxVirtualTime, async.Report.MaxVirtualTime),
					fmt.Sprint(async.Rounds), fmt.Sprint(fenced.Rounds), "ok")
			}
			t.Notes = append(t.Notes,
				"every run's matching is verified maximal — a false termination by the detector would strand a free-free edge and fail the row",
				"expected shape: on mx-skew the barrier-free NSR time beats NSR-rounds (sparse ranks idle at the detector instead of fencing on the dense rank every round)")
			return []*Table{t}, nil
		},
	})
}
