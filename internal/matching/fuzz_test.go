package matching

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sched"
)

// fuzzGraph builds a weighted graph of at most 64 vertices from fuzz
// bytes: each triple (u, v, w) is an edge, duplicates included, and
// u == v a self loop. The builder merges duplicate edges and drops self
// loops, so the loops are put back into their rows afterwards, as a
// decoded file may hold them. Weights take four values, so ties are
// common.
func fuzzGraph(n int, data []byte) *graph.CSR {
	var edges []graph.Edge
	loop := make([]float64, n) // the loop's weight, or 0 for none
	for ; len(data) >= 3; data = data[3:] {
		u, v, w := int(data[0])%n, int(data[1])%n, float64(data[2]%4+1)
		if u == v {
			loop[u] = w
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	}
	return withSelfLoops(graph.FromEdges(n, edges), loop)
}

// FuzzMatchingRun draws a small weighted graph and a run configuration
// (model, engine, EagerReject, 1-8 ranks, perturbation seed) and checks
// the result: valid always; the half-approximate engine's equal to
// Serial's, mates and weight bits, unless EagerReject; the maximal
// engine's maximal. Each draw runs twice on the one graph, and the
// half-approximate engine's second run, which replays the first's Start,
// must be the same run (sameRun).
func FuzzMatchingRun(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 2, 0, 0, 3, 1, 0, 1, 3, 1, 2, 1, 2, 3, 0, 4, 4, 2, 5, 6, 3})
	f.Add([]byte{40, 6, 1, 1, 7, 9, 1, 2, 3, 2, 3, 3, 3, 3, 1, 3, 4, 0, 4, 5, 3, 5, 9, 2, 9, 1, 1, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 1 + int(data[0])%64
		o := Options{
			Procs:       1 + int(data[4])%8,
			Model:       Models[int(data[1])%len(Models)],
			Engine:      Engine(data[2] % 2),
			EagerReject: data[3]&1 != 0,
			Deadline:    time.Minute,
			RoundLog:    64,
			TraceEvents: 256,
		}
		if data[5] != 0 {
			o.Perturb, o.PerturbSeed = sched.Full, uint64(data[5])
		}
		g := fuzzGraph(n, data[6:])
		if err := g.Validate(); err != nil {
			t.Fatalf("fuzz graph: %v", err)
		}
		name := fmt.Sprintf("%v/%v/eager=%v/p=%d/seed=%d", o.Model, o.Engine, o.EagerReject, o.Procs, o.PerturbSeed)
		s := Serial(g)
		// Twice on one graph: the second run replays the first's Start
		// (startLog) and must be the same run.
		var first *ParallelResult
		for pass := 0; pass < 2; pass++ {
			res, err := Run(g, o)
			if err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			if err := Verify(g, res.Result); err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			switch {
			case o.Engine == EngineMaximal:
				if err := VerifyMaximal(g, res.Result); err != nil {
					t.Fatalf("%s pass %d: %v", name, pass, err)
				}
			case !o.EagerReject:
				if !slices.Equal(res.Mate, s.Mate) || math.Float64bits(res.Weight) != math.Float64bits(s.Weight) {
					t.Fatalf("%s pass %d: mates %v weight %v, serial %v weight %v", name, pass, res.Mate, res.Weight, s.Mate, s.Weight)
				}
			}
			if pass == 1 && o.Engine == EngineHalfApprox {
				sameRun(t, name, o, first, res)
			}
			first = res
		}
	})
}
