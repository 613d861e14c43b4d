// Package mpi implements an in-process, MPI-3-like message-passing runtime.
//
// The runtime exists so that distributed-memory SPMD codes written against
// the three MPI communication models studied by Ghosh et al. (IPDPS 2019) —
// nonblocking point-to-point Send-Recv, one-sided Remote Memory Access
// (RMA), and neighborhood collectives over a distributed graph topology —
// can run, unmodified in structure, inside a single Go process: every MPI
// rank is a goroutine, every message is really delivered, and every
// synchronization primitive really synchronizes.
//
// In addition to functional semantics the runtime keeps two ledgers:
//
//   - Traffic statistics: per-rank and per-pair message and byte counts for
//     every primitive, plus buffer high-water marks, mirroring what tools
//     like TAU and CrayPat report on a real machine.
//
//   - A deterministic virtual clock per rank, advanced by a configurable
//     LogGP-style cost model (see CostModel). Message receive operations
//     never observe data "before" it was sent: arrival times propagate
//     through messages, and collectives synchronize clocks. The maximum
//     rank clock at the end of a run is the modeled parallel execution
//     time, which is what the benchmark harness reports.
//
// Ranks communicate through typed []int64 payloads; higher layers encode
// their records into int64 words (8 bytes each for accounting purposes).
//
// Usage:
//
//	rep, err := mpi.Run(2, func(c *mpi.Comm) error {
//	    if c.Rank() == 0 {
//	        c.Isend(1, 7, []int64{42})
//	    } else {
//	        // The Send-Recv drivers' receive: poll with a wildcard probe
//	        // that, on a hit, is also the receive of what it matched.
//	        var buf [1]int64
//	        for {
//	            ok, st := c.IprobeRecvInto(mpi.AnySource, mpi.AnyTag, buf[:])
//	            if ok { // st.Source == 0, st.Tag == 7, buf[0] == 42
//	                _ = st
//	                break
//	            }
//	        }
//	    }
//	    c.Barrier()
//	    return nil
//	}, mpi.WithMatrices())
//
// Blocking Recv/Probe and the separate Iprobe/RecvInto pair exist too.
//
// API errors that correspond to MPI usage errors (bad rank, negative tag)
// panic, mirroring the default MPI_ERRORS_ARE_FATAL behavior; errors
// returned from rank bodies abort the run and are reported by Run.
package mpi

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
)

// Wildcard values for Recv, Probe and Iprobe, mirroring MPI_ANY_SOURCE and
// MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config describes a runtime instance.
type Config struct {
	// Procs is the number of ranks (goroutines) to launch. Must be >= 1.
	Procs int

	// Cost is the virtual-time cost model. Nil selects DefaultCostModel.
	Cost *CostModel

	// TrackMatrices enables per-pair message/byte matrices (O(P^2) memory
	// per enabled run). Scalar counters are always collected.
	TrackMatrices bool

	// Deadline aborts a run (with a full goroutine dump) if the ranks have
	// not all returned within this wall-clock duration. Zero disables the
	// watchdog. The watchdog exists to turn accidental communication
	// deadlocks into actionable failures instead of hangs.
	Deadline time.Duration

	// TraceEvents, when > 0, enables structured event tracing with a
	// per-rank log of this capacity (see events.go). Events beyond the
	// capacity are dropped and counted, so a traced run's memory is
	// bounded; below it, a rank allocates for the events it records.
	TraceEvents int

	// Perturb, when enabled, runs under seeded schedule perturbation
	// (see WithPerturb and package sched). PerturbSeed selects the
	// deterministic decision streams; the zero Profile disables
	// perturbation entirely.
	Perturb     sched.Profile
	PerturbSeed uint64

	// Sched selects how ranks' steps (Comm.Steps) are executed (see
	// SchedMode); rank goroutines are the Go runtime's in every mode.
	// The default, SchedAuto, uses the sharded ticket pool for large
	// worlds and each rank's own goroutine for small ones. Results are
	// bit-identical across modes.
	Sched SchedMode
}

// World holds the shared state of one runtime instance. A World is created
// by Run and lives for the duration of one SPMD execution: the skeleton
// it runs on (mailboxes, the collective hub, and the scheduler tasks that
// poison unparks) plus what is fresh every run.
type World struct {
	*worldState
	cost  *CostModel
	stats []*RankStats
	// pool is the ticket pool in SchedWorkers mode, nil in SchedDirect.
	pool *ticketPool

	// idSeq is the last id newID handed out. Only rank 0 draws, so the
	// single-goroutine discipline of a rank body guards it.
	idSeq int64
}

// procState is the per-process (per-goroutine) mutable state shared by
// every communicator handle the process holds: one virtual clock, one
// statistics ledger, one event log.
type procState struct {
	now float64
	rs  *RankStats
	// task is this rank's scheduler task: the unit that parks when the
	// rank blocks in the runtime and is unparked when progress becomes
	// possible.
	task *task
	// pollMisses counts consecutive unfruitful non-blocking polls
	// (Iprobe). Every pollYieldEvery-th miss yields the scheduler; any
	// successful match resets it.
	pollMisses int
	// ev is the structured event log, nil when tracing is off; the nil
	// check is the entire cost of a disabled instrumentation point.
	ev *eventLog
	// pert is this rank's schedule-perturbation stream, nil when
	// perturbation is off — like ev, the nil check is the whole cost of
	// the disabled hooks.
	pert *sched.Rank
	// collStart snapshots the clock at enterColl so exitColl can record
	// the collective as one event spanning the whole synchronization.
	collStart float64
	// collGen is one more than the generation of the collective round a
	// step form left waiting, else 0 (reduceStep).
	collGen int64
}

// Comm is a rank's handle to the world communicator. Exactly one
// goroutine (the rank body) may use a given Comm; a process may hold
// several (the world plus each termination detector's copy on a private
// message context), all sharing one clock and ledger. All communication,
// timing and statistics methods hang off Comm.
type Comm struct {
	w    *World
	rank int
	ctx  int32 // message context isolating point-to-point traffic
	ps   *procState
}

// Report summarizes a completed run.
type Report struct {
	// Procs is the number of ranks that ran.
	Procs int
	// MaxVirtualTime is the modeled parallel execution time in seconds:
	// the maximum final virtual clock over all ranks.
	MaxVirtualTime float64
	// FinalTimes holds every rank's final virtual clock, indexed by
	// world rank. MaxVirtualTime is its maximum; the post-mortem
	// critical-path walk starts from its argmax.
	FinalTimes []float64
	// Wall is the real elapsed time of the run.
	Wall time.Duration
	// Stats holds the per-rank statistics ledgers. Prefer the accessor
	// methods (Totals, MsgMatrix, ByteMatrix, Events, Profile) in new
	// code; the field remains exported for direct inspection.
	Stats []*RankStats

	events []*eventLog
}

// Run launches procs rank goroutines executing body and waits for all
// of them, with the run configured by functional options:
//
//	rep, err := mpi.Run(16, body,
//	    mpi.WithCost(m), mpi.WithMatrices(), mpi.WithEventTrace(1<<16))
//
// It returns a Report with traffic statistics and the modeled virtual
// time. If any rank body returns an error or panics, Run returns an
// error describing the first few failures (the Report is still valid
// for whatever completed).
func Run(procs int, body func(c *Comm) error, opts ...Option) (*Report, error) {
	cfg := Config{Procs: procs}
	for _, o := range opts {
		o(&cfg)
	}
	return runConfig(cfg, body)
}

// worldState is the reusable skeleton of a run: every per-rank object
// whose lifetime ends with Run and whose contents do not escape into the
// Report (mailbox shells and their buckets, task structs and their wake
// channels, the collective hub's shard and deposit arrays). Statistics
// ledgers, trace buffers and the Report are always fresh — they outlive
// the run.
//
// Skeletons are kept by rule in the idle set: a clean run releases its
// skeleton, which is kept unless one of the same size is already idle,
// at most one per size and at most maxIdleWorlds sizes, the least
// recently released evicted first; the next Run of that size takes it.
// So a loop alternating two world sizes builds each once. A failed or
// poisoned world may hold ranks unwinding concurrently with Run's
// return, so it is never released and is simply dropped for the GC.
//
// All per-rank fixed-size state lives in arenas — one backing array of
// structs per kind instead of n individual heap objects — which removes
// n-1 allocations per kind, the per-object heap headers, and most of the
// pointer graph the GC would otherwise walk every cycle at 64K+ ranks.
// The []*T views exist because pushers, poison sweeps and the public
// Report API traffic in pointers; the pointers are stable for the
// arena's life.
type worldState struct {
	n         int
	mbArena   []mailbox
	taskArena []task
	commArena []Comm
	mailboxes []*mailbox
	tasks     []*task
	comms     []*Comm
	procs     []procState
	hub       *collHub
}

// maxIdleWorlds is the number of world sizes the idle set keeps: the
// benchmarked loops run one world size, or two that alternate
// (16384-rank rings and 4096-rank matching in bench/'s world-16k).
const maxIdleWorlds = 2

var (
	idleMu sync.Mutex
	// idleWorlds holds at most one skeleton per size, least recently
	// released first.
	idleWorlds []*worldState
)

// acquireWorldState takes the idle skeleton for n ranks, or builds a
// fresh one. A skeleton serves only its own size: the arenas and the
// hub's shard layout are sized to n.
func acquireWorldState(n int) *worldState {
	idleMu.Lock()
	for i, ws := range idleWorlds {
		if ws.n == n {
			idleWorlds = slices.Delete(idleWorlds, i, i+1)
			idleMu.Unlock()
			return ws
		}
	}
	idleMu.Unlock()
	ws := &worldState{
		n:         n,
		mbArena:   make([]mailbox, n),
		taskArena: make([]task, n),
		commArena: make([]Comm, n),
		mailboxes: make([]*mailbox, n),
		tasks:     make([]*task, n),
		comms:     make([]*Comm, n),
		procs:     make([]procState, n),
		hub:       newCollHub(n),
	}
	for i := 0; i < n; i++ {
		ws.mailboxes[i] = &ws.mbArena[i]
		t := &ws.taskArena[i]
		t.initTask()
		ws.tasks[i] = t
		ws.comms[i] = &ws.commArena[i]
	}
	return ws
}

// releaseWorldState drains the skeleton and adds it to the idle set,
// unless a skeleton of its size is already idle; a full set evicts its
// least recently released skeleton. procState and Comm structs are
// zeroed: they hold pointers into the run's statistics ledgers (which
// escape into the Report), and an idle skeleton must not pin a dead
// run's O(P) ledger memory.
func releaseWorldState(ws *worldState) {
	for _, mb := range ws.mailboxes {
		mb.reset()
	}
	ws.hub.clearDeps()
	clear(ws.procs)
	clear(ws.commArena)
	idleMu.Lock()
	defer idleMu.Unlock()
	for _, idle := range idleWorlds {
		if idle.n == ws.n {
			return
		}
	}
	if len(idleWorlds) == maxIdleWorlds {
		idleWorlds = slices.Delete(idleWorlds, 0, 1)
	}
	idleWorlds = append(idleWorlds, ws)
}

func runConfig(cfg Config, body func(c *Comm) error) (*Report, error) {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("mpi: Config.Procs must be >= 1, got %d", cfg.Procs))
	}
	cost := cfg.Cost
	if cost == nil {
		cost = DefaultCostModel()
	}
	ws := acquireWorldState(cfg.Procs)
	w := &World{worldState: ws, cost: cost, stats: make([]*RankStats, cfg.Procs)}
	nshards := 1
	if resolveSched(cfg.Sched, cfg.Procs) == SchedWorkers {
		nshards = ticketCount(cfg.Procs)
		w.pool = newTicketPool(nshards)
	}
	// Ledgers escape into the Report, so they are freshly allocated every
	// run — but as one backing array, not cfg.Procs separate objects.
	statsArena := make([]RankStats, cfg.Procs)
	for i := range w.stats {
		statsArena[i].init(i, cfg.Procs, cfg.TrackMatrices)
		w.stats[i] = &statsArena[i]
	}
	// New returns nil for a disabled profile, so the hot-path hooks stay
	// on their nil fast paths in ordinary runs.
	pt := sched.New(cfg.PerturbSeed, cfg.Perturb, cfg.Procs)

	var (
		wg     sync.WaitGroup
		errMu  sync.Mutex
		errs   []error
		comms  = ws.comms
		start  = time.Now()
		doneCh = make(chan struct{})
	)
	var events []*eventLog
	if cfg.TraceEvents > 0 {
		events = make([]*eventLog, cfg.Procs)
		for i := range events {
			events[i] = newEventLog(cfg.TraceEvents)
		}
	}
	// Set up every rank before spawning any: an early rank's body may
	// immediately send into a later rank's mailbox, and that push reads
	// mb.owner and task state. The `go` statements below happen-after
	// this whole loop, so all setup writes are visible to every rank
	// goroutine.
	for r := 0; r < cfg.Procs; r++ {
		t := ws.tasks[r]
		// Ranks map to scheduler shards in contiguous blocks so ring and
		// mesh neighborhoods stay shard-local.
		t.reset(int32(r), int32(r*nshards/cfg.Procs), w.pool)
		ps := &ws.procs[r]
		*ps = procState{rs: w.stats[r], task: t}
		if events != nil {
			ps.ev = events[r]
		}
		mb := ws.mailboxes[r]
		mb.owner = t
		if pt != nil {
			ps.pert = pt.Rank(r)
			if cfg.Perturb.Ties {
				// The mailbox needs the stream too, for wildcard-selection
				// permutation; matchUserLocked is only ever called by the
				// owning rank, so the single-goroutine discipline holds.
				mb.pert = ps.pert
			}
		}
		*comms[r] = Comm{w: w, rank: r, ps: ps}
	}
	for r := 0; r < cfg.Procs; r++ {
		c := comms[r]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					buf := make([]byte, 16<<10)
					buf = buf[:runtime.Stack(buf, false)]
					errMu.Lock()
					errs = append(errs, fmt.Errorf("rank %d panicked: %v\n%s", c.rank, p, buf))
					errMu.Unlock()
					// Unblock peers that may be blocked waiting anywhere.
					w.poison()
				}
			}()
			if err := body(c); err != nil {
				errMu.Lock()
				errs = append(errs, fmt.Errorf("rank %d: %w", c.rank, err))
				errMu.Unlock()
				// A failed rank will never send or deposit again, so any
				// peer waiting on it would block forever and an undeadlined
				// Run would hang. Poison the world: blocked peers unwind
				// with "a peer rank failed" panics, which the error report
				// ranks below the root cause.
				w.poison()
			}
		}()
	}
	go func() { wg.Wait(); close(doneCh) }()

	var deadlineErr error
	if cfg.Deadline > 0 {
		select {
		case <-doneCh:
		case <-time.After(cfg.Deadline):
			// Deadline blown: poison the world so every rank blocked in a
			// receive, probe or collective unwinds (their blocking loops
			// check the poisoned flag and panic, which the rank goroutine
			// recovers), then report the deadlock as an error instead of
			// crashing the process. The grace wait below only fails if a
			// rank is stuck outside the runtime (e.g. user code blocked on
			// a channel), where a dump is the only useful artifact.
			deadlineErr = fmt.Errorf("mpi: run exceeded deadline %v (likely communication deadlock)", cfg.Deadline)
			w.poison()
			select {
			case <-doneCh:
			case <-time.After(10 * time.Second):
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				panic(fmt.Sprintf("mpi: ranks failed to unwind after deadline %v poison; goroutines:\n%s", cfg.Deadline, buf))
			}
		}
	} else {
		<-doneCh
	}
	for i, mb := range w.mailboxes {
		mb.fold(w.stats[i], w.stats)
	}
	for _, l := range events {
		l.seal()
	}
	rep := &Report{Procs: cfg.Procs, Wall: time.Since(start), Stats: w.stats, events: events}
	rep.FinalTimes = make([]float64, cfg.Procs)
	for i, c := range comms {
		rep.FinalTimes[i] = c.ps.now
		rep.MaxVirtualTime = math.Max(rep.MaxVirtualTime, c.ps.now)
	}
	errMu.Lock()
	defer errMu.Unlock()
	if deadlineErr == nil && len(errs) == 0 {
		releaseWorldState(ws)
	}
	if deadlineErr != nil {
		// The per-rank "aborted: a peer rank failed" panics that the
		// poison provoked are a consequence, not the cause; report the
		// deadline itself.
		return rep, fmt.Errorf("%w (%d rank(s) were still blocked)", deadlineErr, len(errs))
	}
	if len(errs) > 0 {
		// "a peer rank failed" unwinds are consequences of the poison, not
		// causes; sort them after the originating failures.
		consequence := func(e error) bool {
			return strings.Contains(e.Error(), "a peer rank failed")
		}
		sort.Slice(errs, func(i, j int) bool {
			if ci, cj := consequence(errs[i]), consequence(errs[j]); ci != cj {
				return cj
			}
			return errs[i].Error() < errs[j].Error()
		})
		if len(errs) > 3 {
			errs = errs[:3]
		}
		return rep, fmt.Errorf("mpi: %d rank failure(s); first: %w", len(errs), errs[0])
	}
	return rep, nil
}

// Rank returns this process's rank, in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.n }

// Now returns this rank's current virtual clock in seconds.
func (c *Comm) Now() float64 { return c.ps.now }

// Cost returns the cost model in effect.
func (c *Comm) Cost() *CostModel { return c.w.cost }

// Stats returns this rank's statistics ledger. The ledger must only be
// inspected by this rank while the run is live; after Run returns, all
// ledgers may be read freely from the Report.
func (c *Comm) Stats() *RankStats { return c.ps.rs }

// Compute charges units of local computation to this rank's virtual clock
// using CostModel.ComputePerUnit. A "unit" is deliberately abstract: the
// matching and BFS codes charge one unit per adjacency entry scanned or
// per protocol event handled.
func (c *Comm) Compute(units float64) {
	dt := units * c.w.cost.ComputePerUnit
	c.ps.now += dt
	c.ps.rs.CompTime += dt
}

// ComputeUnits charges n units exactly as n calls of Compute(1) would:
// n additions of CostModel.ComputePerUnit to the clock and to the
// compute ledger, each rounded in turn, so both keep every bit. The sums
// run in registers, so a kernel that counts its own units and settles
// them before anything reads the clock pays one call, not n.
func (c *Comm) ComputeUnits(n int64) {
	dt := c.w.cost.ComputePerUnit
	now, ct := c.ps.now, c.ps.rs.CompTime
	for ; n > 0; n-- {
		now += dt
		ct += dt
	}
	c.ps.now, c.ps.rs.CompTime = now, ct
}

// Pack charges the CPU cost of appending n records to an aggregation
// buffer (n times CostModel.PackOverhead), booked as pack time in the
// phase profile. Aggregating transports call it per queued record.
func (c *Comm) Pack(n int) {
	dt := float64(n) * c.w.cost.PackOverhead
	c.ps.now += dt
	c.ps.rs.PackTime += dt
}

// Unpack charges the CPU cost of parsing n records out of a received
// coalesced buffer, booked as unpack time in the phase profile.
func (c *Comm) Unpack(n int) {
	dt := float64(n) * c.w.cost.PackOverhead
	c.ps.now += dt
	c.ps.rs.UnpackTime += dt
}

// AccountAlloc records bytes of application communication-buffer memory
// against this rank (window memory, aggregation buffers). Use a negative
// value to record a release. The high-water mark feeds the Table VIII
// style memory reports.
func (c *Comm) AccountAlloc(bytes int64) { c.ps.rs.accountAlloc(bytes) }

// chargeComm adds dt of communication time to the clock and the ledger.
func (c *Comm) chargeComm(dt float64) {
	c.ps.now += dt
	c.ps.rs.CommTime += dt
}

// perturbLatency applies this rank's schedule perturbation (per-rank
// slowdown and per-message jitter) to an in-flight latency before it is
// stamped into a message's virtual arrival. One nil check when off; the
// perturbed value is never smaller than the base, preserving causality.
func (c *Comm) perturbLatency(base float64) float64 {
	if pt := c.ps.pert; pt != nil {
		return pt.Latency(base)
	}
	return base
}

// waitFor advances the clock to at least t, booking the idle gap as
// communication (wait) time. class says what the rank was blocked on,
// cause the world rank that enables progress at time t, and causeT that
// rank's local clock when it did so (message injection, collective
// entry) — together they form the cross-rank dependency edge the
// post-mortem critical-path analysis walks. The traced-off cost is one
// nil check, as in event.
func (c *Comm) waitFor(t float64, class WaitClass, cause int, causeT float64) {
	if t > c.ps.now {
		from := c.ps.now
		c.ps.rs.CommTime += t - from
		c.ps.rs.WaitTime += t - from
		c.ps.now = t
		if c.ps.ev != nil {
			c.record(EvWait, class, cause, -1, 0, from, causeT)
		}
	}
}

// waitUntil is waitFor without a known cause (no dependency edge).
func (c *Comm) waitUntil(t float64) { c.waitFor(t, WaitNone, -1, 0) }

func (c *Comm) mbox() *mailbox { return c.w.mailboxes[c.rank] }

func (c *Comm) checkRank(r int, what string) {
	if r < 0 || r >= c.w.n {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", what, r, c.w.n))
	}
}

// newID allocates a world-unique id every rank agrees on, the way
// window and detector-context creation agree on theirs: rank 0 draws
// from the world sequence (ids start at 1) and every other rank
// contributes 0 to a max-reduction, which so hands rank 0's id to all.
// Collective.
func (c *Comm) newID() int64 {
	var id int64
	if c.rank == 0 {
		c.w.idSeq++
		id = c.w.idSeq
	}
	return c.AllreduceScalarInt64(OpMax, id)
}
