// Package driver is the one path every owner-computes application in
// this repository takes from options to results: matching (both
// engines), colouring and BFS. The paper's §IV-D claim is that such
// kernels share one communication substrate; here they also share the
// code around it.
//
// It has two layers. Run is the scaffolding: options → simulated world →
// per-rank partition, telemetry log, transport backend and (when asked)
// termination detector → the application's body → release → merged
// telemetry, round and message totals. Rank.Loop is the protocol loop
// the body calls with its Kernel: one of three, picked from the
// backend's flavour and the termination the application declared, never
// from which application is asking. An application whose outer loop has
// another shape (BFS: one level at a time) takes Run and Pump and keeps
// that loop to itself.
package driver

import (
	"fmt"
	"time"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Options are the run knobs every application shares.
type Options struct {
	// Procs is the number of simulated MPI ranks. Must be >= 1.
	Procs int
	// Model selects the communication model. The zero value is
	// ModelNSR: per-record nonblocking sends.
	Model transport.Model
	// Cost overrides the virtual-time cost model (nil = defaults).
	Cost *mpi.CostModel
	// TrackMatrices enables per-pair communication matrices (Fig 2/9/11).
	TrackMatrices bool
	// Deadline bounds wall-clock execution (0 = no watchdog).
	Deadline time.Duration
	// TraceEvents, when > 0, enables structured event tracing with a
	// per-rank ring of this capacity (Report.Events, WriteChromeTrace,
	// RenderTimeline).
	TraceEvents int
	// RoundLog, when > 0, enables round-level protocol telemetry with a
	// per-rank log of this capacity (Result.Telemetry). Rows beyond the
	// capacity are dropped, not wrapped; see Series.Drops.
	RoundLog int
	// Perturb, when enabled, runs under seeded schedule perturbation
	// (mpi.WithPerturb): the runtime varies its legal delivery
	// reorderings according to PerturbSeed; see internal/sched and
	// DESIGN §4.
	Perturb     sched.Profile
	PerturbSeed uint64
}

// mpiOptions translates the runtime knobs to mpi.Run options.
func (o Options) mpiOptions() []mpi.Option {
	opts := make([]mpi.Option, 0, 5)
	if o.Cost != nil {
		opts = append(opts, mpi.WithCost(o.Cost))
	}
	if o.TrackMatrices {
		opts = append(opts, mpi.WithMatrices())
	}
	if o.Deadline > 0 {
		opts = append(opts, mpi.WithDeadline(o.Deadline))
	}
	if o.TraceEvents > 0 {
		opts = append(opts, mpi.WithEventTrace(o.TraceEvents))
	}
	if o.Perturb.Enabled() {
		opts = append(opts, mpi.WithPerturb(o.PerturbSeed, o.Perturb))
	}
	return opts
}

// Protocol is what the scaffolding has to know about the application's
// protocol to wire a rank.
type Protocol struct {
	// App prefixes errors ("matching", "coloring", "bfs").
	App string
	// MaxPerArc bounds protocol records per cross arc per direction;
	// the buffered backends are sized from it.
	MaxPerArc int64
	// Detect declares that a rank's local count cannot see records
	// still on their way to it, so termination is detected rather than
	// counted: by mpi.Quiesce over a point-to-point backend, by a second
	// allreduced count (Kernel.InFlight) in exchange rounds.
	Detect bool
	// ForceRounds pins a point-to-point backend to fenced exchange
	// rounds — the controlled baseline a barrier-free loop is measured
	// against.
	ForceRounds bool
}

// Rank is one rank's wiring, handed to the application's body.
type Rank struct {
	Comm    *mpi.Comm
	Local   *distgraph.Local
	Backend transport.Backend
	// Log is the rank's telemetry log, nil unless Options.RoundLog is
	// set; Record appends to it.
	Log *telemetry.RoundLog
	// Quiesce is the termination detector the kernel reports every
	// record it pushes and handles to; nil unless the run is detected
	// and barrier-free.
	Quiesce *mpi.Quiesce
	// Rounds is the loop's iteration count, set by Loop. Sent is the
	// rank's protocol record count, set by the body.
	Rounds int
	Sent   int64

	detect bool      // Protocol.Detect
	fence  *mpi.Comm // set when a point-to-point backend runs in fenced rounds
	vol    []int64   // the backend's live per-neighbor byte ledger, with Log
}

// Record appends one telemetry row at a round boundary: the rank's clock
// and mailbox occupancy, the application's counters as given (Kernel.Row)
// and the backend's per-neighbor volume ledger. One nil check when
// telemetry is off.
func (r *Rank) Record(unresolved, done, req, rej, inv int64) {
	if r.Log != nil {
		r.Log.Append(r.Comm.Now(), unresolved, done, req, rej, inv, r.Comm.QueuedBytes(), r.vol)
	}
}

// Result is what a run leaves behind besides the application's own
// output.
type Result struct {
	// Report carries the runtime's virtual time and traffic ledgers.
	Report *mpi.Report
	// Dist is the distribution used (for process-graph statistics).
	Dist *distgraph.Dist
	// Telemetry is the merged round-level series (nil unless
	// Options.RoundLog was set).
	Telemetry *telemetry.Series
	// Rounds is the maximum of Rank.Rounds, Messages the sum of
	// Rank.Sent.
	Rounds   int
	Messages int64
}

// Run distributes g over opt.Procs simulated ranks and runs body on
// each, between the construction and the release of the rank's
// transport backend. The body builds its kernel over the Rank, runs its
// loop (Rank.Loop, or its own over Pump), and copies the rank's share of
// the result out. An error from any rank's body, a deadline, or a
// backend the model cannot construct fails the run.
func Run(g *graph.CSR, opt Options, p Protocol, body func(*Rank) error) (*Result, error) {
	if opt.Procs < 1 {
		return nil, fmt.Errorf("%s: Procs = %d", p.App, opt.Procs)
	}
	d := distgraph.NewBlockDist(g, opt.Procs)
	rounds := make([]int, opt.Procs)
	sent := make([]int64, opt.Procs)
	var logs []*telemetry.RoundLog
	if opt.RoundLog > 0 {
		logs = make([]*telemetry.RoundLog, opt.Procs)
	}
	p2p := opt.Model.Flavor() == transport.FlavorAsync

	rep, err := mpi.Run(opt.Procs, func(c *mpi.Comm) error {
		r := Rank{Comm: c, Local: d.BuildLocal(c.Rank()), detect: p.Detect}
		if p2p && p.ForceRounds {
			r.fence = c
		}
		t, err := transport.New(opt.Model, transport.Deps{
			Comm:      c,
			Local:     r.Local,
			MaxPerArc: p.MaxPerArc,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.App, err)
		}
		r.Backend = t
		if logs != nil {
			r.Log = telemetry.NewRoundLog(opt.RoundLog, len(r.Local.NeighborRanks))
			r.Log.SetTotal(int64(r.Local.NumOwned()))
			logs[c.Rank()] = r.Log
			r.vol = t.VolumeByNeighbor()
		}
		if p.Detect && p2p && r.fence == nil {
			r.Quiesce = mpi.NewQuiesce(c)
		}
		if err := body(&r); err != nil {
			return err
		}
		transport.Release(t)
		rounds[c.Rank()], sent[c.Rank()] = r.Rounds, r.Sent
		return nil
	}, opt.mpiOptions()...)
	if err != nil {
		return nil, err
	}

	res := &Result{Report: rep, Dist: d}
	if logs != nil {
		res.Telemetry = telemetry.Merge(logs)
	}
	for i := range rounds {
		res.Rounds = max(res.Rounds, rounds[i])
		res.Messages += sent[i]
	}
	return res, nil
}
