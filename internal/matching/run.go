package matching

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Model aliases transport.Model, where the communication-model
// vocabulary now lives alongside the backends it selects; the constants
// are re-exported so existing matching.NSR-style references keep
// working.
type Model = transport.Model

// The paper's communication models plus the extensions (§V-A).
const (
	NSR  = transport.ModelNSR
	RMA  = transport.ModelRMA
	NCL  = transport.ModelNCL
	MBP  = transport.ModelMBP
	NCLI = transport.ModelNCLI
	NSRA = transport.ModelNSRA
	NCLC = transport.ModelNCLC
)

// Models lists all communication models in presentation order.
var Models = transport.Models

// Engine selects the matching protocol family.
type Engine int

const (
	// EngineHalfApprox is the paper's half-approximate locally-dominant
	// protocol (the default): round- or poll-structured, with per-arc
	// termination counting and a schedule-invariant result.
	EngineHalfApprox Engine = iota
	// EngineMaximal is the asynchronous Skipper-style maximal-matching
	// protocol: a single pass over local edges with proposal/accept/
	// decline messages and detected (not counted) termination. The
	// result is a valid maximal matching whose edge set is legitimately
	// schedule-dependent; see DESIGN.md §4f.
	EngineMaximal
)

func (e Engine) String() string {
	switch e {
	case EngineHalfApprox:
		return "halfapprox"
	case EngineMaximal:
		return "maximal"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps a CLI spelling to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "halfapprox", "half", "dominant", "":
		return EngineHalfApprox, nil
	case "maximal", "max", "async":
		return EngineMaximal, nil
	}
	return 0, fmt.Errorf("matching: unknown engine %q (want halfapprox or maximal)", s)
}

// Options configures a distributed matching run.
type Options struct {
	// Procs is the number of simulated MPI ranks. Must be >= 1.
	Procs int
	// Model selects the communication model.
	Model Model
	// Engine selects the protocol family (default EngineHalfApprox).
	Engine Engine
	// ForceRounds pins an async-flavor model to the round-structured
	// loop (flush, barrier, counting allreduce per round) instead of
	// the barrier-free detector path. Only meaningful for EngineMaximal
	// on NSR/MBP/NSRA: it is the controlled baseline the asynchronous
	// engine is measured against. Ignored elsewhere.
	ForceRounds bool
	// Cost overrides the virtual-time cost model (nil = defaults).
	Cost *mpi.CostModel
	// TrackMatrices enables per-pair communication matrices (Fig 2/9/11).
	TrackMatrices bool
	// Deadline bounds wall-clock execution (0 = no watchdog).
	Deadline time.Duration
	// EagerReject switches the protocol to the paper's literal
	// Algorithm 6 (reject-on-sight); see DESIGN.md §3. The result is a
	// valid matching but not necessarily locally dominant.
	EagerReject bool
	// TraceEvents, when > 0, enables structured event tracing with a
	// per-rank ring of this capacity (Report.Events, WriteChromeTrace).
	TraceEvents int
	// RoundLog, when > 0, enables round-level protocol telemetry with a
	// per-rank log of this capacity (ParallelResult.Telemetry). Rounds
	// beyond the capacity are dropped, not wrapped; see Series.Drops.
	RoundLog int
	// Perturb, when enabled, runs under seeded schedule perturbation
	// (mpi.WithPerturb): the runtime varies its legal delivery
	// reorderings according to PerturbSeed. The default protocol's
	// result is invariant under it; see internal/sched and DESIGN §4.
	Perturb     sched.Profile
	PerturbSeed uint64
}

// shared is the part of the options every application has.
func (o Options) shared() driver.Options {
	return driver.Options{
		Procs: o.Procs, Model: o.Model, Cost: o.Cost, TrackMatrices: o.TrackMatrices, Deadline: o.Deadline,
		TraceEvents: o.TraceEvents, RoundLog: o.RoundLog, Perturb: o.Perturb, PerturbSeed: o.PerturbSeed,
	}
}

// MaxMessagesPerCrossEdge bounds the half-approximate protocol's traffic
// per cross edge per direction: one REQUEST plus at most one REJECT or
// INVALID (paper §IV-B: "a vertex may send at most 2 messages to a ghost
// vertex"). The RMA window regions and the collective aggregation
// buffers are sized with it.
const MaxMessagesPerCrossEdge = 2

// ParallelResult is the outcome of a distributed run: the matching and
// the driver's Outcome (for NCL/RMA, Rounds counts the neighborhood
// exchange rounds).
type ParallelResult struct {
	*Result
	*driver.Outcome
}

// Run executes distributed matching on g under the given options and
// returns the matching together with performance ledgers. The default
// engine is the half-approximate locally-dominant protocol, whose
// matching is identical to Serial(g) for all models unless EagerReject
// is set (in which case it is still a valid matching). EngineMaximal
// runs the maximal-matching protocol instead: barrier-free under a
// quiescence detector on the async-flavor models unless ForceRounds
// fences them, with a two-count fence on the round-flavor ones.
func Run(g *graph.CSR, opt Options) (*ParallelResult, error) {
	mates := make([]int32, g.NumVertices())
	proto := driver.Protocol{App: "matching", MaxPerArc: MaxMessagesPerCrossEdge}
	var body func(*driver.Rank) error
	if opt.Engine == EngineMaximal {
		proto.MaxPerArc, proto.Detect, proto.ForceRounds = maximalMaxPerArc, true, opt.ForceRounds
		body = func(r *driver.Rank) error {
			e := newMxEngine(r.Comm, r.Local, r.Backend, r.Quiesce, mates)
			r.Loop(e, e.handleMessage)
			r.Sent = e.sent
			return nil
		}
	} else {
		// The sorted adjacency and the mirror are the graph's own
		// indexes, built at most once per graph and outside the
		// simulated world; every rank's engine shares them (and still
		// charges its local share of the sort to its virtual clock).
		// So is each rank's Start, recorded by the first run at this
		// rank count and replayed by the later ones.
		order, mirror := g.KeyOrder(), g.Mirror()
		starts := startLogs(g, opt.Procs)
		body = func(r *driver.Rank) error {
			e := newEngine(r.Comm, r.Local, r.Backend, opt.EagerReject, order, mirror, mates)
			e.slot = &starts[r.Comm.Rank()]
			r.Loop(e, e.handleMessage)
			r.Sent = e.sent
			return nil
		}
	}
	out, err := driver.Run(g, opt.shared(), proto, body)
	if err != nil {
		return nil, err
	}
	return &ParallelResult{NewResult(g, mates), out}, nil
}
