// Package analysis is the post-mortem trace analyzer: it consumes a
// finished, event-traced mpi.Report and explains *why* a run spent its
// time the way the §V-D phase profiles say it did. Three products come
// out of one pass over the event rings:
//
//   - a wait-state classification of every blocked interval in the
//     Scalasca taxonomy (late-sender, wait-at-exchange/-fence,
//     wait-at-collective), each with the causing peer rank and its
//     virtual-time cost, plus two derived states that need no blocked
//     interval at all: probe-spin (active Iprobe polling that found
//     nothing) and late-receiver (virtual time completed messages spent
//     parked in the unexpected queue because the receiver was late,
//     read from the arrival the runtime stamps on each receive, so it
//     is exact under schedule perturbation and counts every recorded
//     receive even when the sender's ring dropped its send);
//
//   - the virtual-time critical path: a backward walk from the last
//     rank to finish, hopping across ranks through the dependency edges
//     the runtime stamps into classified wait events (message injection
//     times, collective last-entrant clocks). Its length equals the
//     run's end-to-end virtual time exactly, and its segments attribute
//     every second of it to a rank and an activity;
//
//   - POP-style efficiency metrics: parallel efficiency factored into
//     load balance and communication efficiency, with the latter split
//     into serialization and transfer components using the critical
//     path's transfer share. With a telemetry.Series the same wait
//     accounting is resolved per driver round.
//
// Analysis runs strictly after the simulated world has finished — it
// only reads the Report — so the runtime's allocation and scheduling
// behavior is untouched.
package analysis

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// SchemaVersion identifies the JSON layout of Record. Bump on any field
// rename or semantic change.
const SchemaVersion = 1

// Wait-state class names as serialized in Record.WaitStates. The
// blocked classes partition the runtime's EvWait time; the derived
// classes measure overlap-free overhead that blocks nothing.
const (
	ClassLateSender   = "late_sender"
	ClassExchange     = "wait_at_exchange"
	ClassFence        = "wait_at_fence"
	ClassCollective   = "wait_at_collective"
	ClassUnclassified = "unclassified"
	ClassProbeSpin    = "probe_spin"
	ClassLateReceiver = "late_receiver"
)

// Options parameterizes Analyze.
type Options struct {
	// Model is the communication model's name ("NSR", "RMA", ...). It
	// only affects labeling: under RMA the neighborhood-exchange wait
	// after the flush is the fence-synchronization analogue (paper
	// §IV-D), so its class is reported as wait_at_fence.
	Model string
	// Telemetry, when non-nil, resolves wait states per driver round
	// into Record.Rounds using the series' round-boundary clocks.
	Telemetry *telemetry.Series
	// TopK bounds the per-class cause lists and the critical path's
	// edge list (default 10).
	TopK int
}

// Cause is one peer rank's contribution to a wait-state class.
type Cause struct {
	Rank    int     `json:"rank"`
	Seconds float64 `json:"seconds"`
}

// WaitState aggregates one class of wait time across the run.
type WaitState struct {
	Class string `json:"class"`
	// Seconds is virtual time summed over ranks; Count the number of
	// intervals (or polls, for probe_spin; messages for late_receiver).
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
	// Share is Seconds over the run's total blocked wait time. Derived
	// (non-blocking) classes report the same ratio for comparability;
	// it may exceed 1 when polling overhead dwarfs blocked time.
	Share float64 `json:"share"`
	// Derived marks the classes computed from non-blocking evidence
	// (probe_spin, late_receiver); they are not part of the blocked
	// total.
	Derived bool `json:"derived,omitempty"`
	// TopCauses names the peer ranks responsible for the most seconds.
	TopCauses []Cause `json:"top_causes,omitempty"`
}

// Edge is one cross-rank dependency on the critical path: Rank was
// blocked WaitSec waiting for Peer, and the dependency's in-flight
// (transfer) share of the path is TransferSec, ending at AtSec.
type Edge struct {
	Rank        int     `json:"rank"`
	Peer        int     `json:"peer"`
	Class       string  `json:"class"`
	WaitSec     float64 `json:"wait_sec"`
	TransferSec float64 `json:"transfer_sec"`
	AtSec       float64 `json:"at_sec"`
}

// RankShare is one rank's share of the critical path's local time.
type RankShare struct {
	Rank    int     `json:"rank"`
	Seconds float64 `json:"seconds"`
}

// Path is the virtual-time critical path across ranks.
type Path struct {
	// LengthSec equals the run's end-to-end virtual time exactly: the
	// walk starts at the last completion and tiles [0, LengthSec].
	LengthSec float64 `json:"length_sec"`
	// Hops counts cross-rank dependency edges followed.
	Hops int `json:"hops"`
	// Truncated is set when an exhausted event ring forced the walk to
	// attribute the remaining prefix to the current rank wholesale.
	Truncated bool `json:"truncated,omitempty"`
	// ByKind attributes the path's seconds to activities: compute (and
	// other event-free time), transfer (in-flight dependency edges),
	// blocked (waits with no known cause) and the traced primitive
	// kinds (send, recv, probe, coll, ...).
	ByKind map[string]float64 `json:"by_kind"`
	// RankShares lists the top ranks by on-path local seconds.
	RankShares []RankShare `json:"rank_shares,omitempty"`
	// TopEdges lists the bounding dependency edges by blocked seconds.
	TopEdges []Edge `json:"top_edges,omitempty"`
}

// Efficiency is the POP-style efficiency factorization. All values are
// in [0,1] up to floating-point noise (useful = compute + pack +
// unpack, T = end-to-end virtual time):
//
//	ParallelEff   = avg(useful) / T            = LoadBalance * CommEff
//	LoadBalance   = avg(useful) / max(useful)
//	CommEff       = max(useful) / T            = SerializationEff * TransferEff
//	TransferEff   = (T - transfer-on-critical-path) / T
//	SerializationEff = max(useful) / (T - transfer-on-critical-path)
type Efficiency struct {
	ParallelEff      float64 `json:"parallel_eff"`
	LoadBalance      float64 `json:"load_balance"`
	CommEff          float64 `json:"comm_eff"`
	SerializationEff float64 `json:"serialization_eff"`
	TransferEff      float64 `json:"transfer_eff"`
	AvgUsefulSec     float64 `json:"avg_useful_sec"`
	MaxUsefulSec     float64 `json:"max_useful_sec"`
}

// RoundEff resolves the wait accounting over one driver round: the
// window between consecutive telemetry round boundaries.
type RoundEff struct {
	Round   int     `json:"round"`
	TimeSec float64 `json:"time_sec"` // window end (boundary clock)
	WaitSec float64 `json:"wait_sec"` // blocked time in window, all ranks
	// WaitFrac is WaitSec over the window's total rank-time
	// (procs * window length).
	WaitFrac float64 `json:"wait_frac"`
	// Dominant names the blocked class with the most seconds in the
	// window (empty when the window has no blocked time).
	Dominant      string  `json:"dominant,omitempty"`
	DominantShare float64 `json:"dominant_share,omitempty"`
}

// Record is the analyzer's schema-versioned output, embedded in the
// harness RunRecord JSON and rendered by matchbench -analyze.
type Record struct {
	Schema int    `json:"schema"`
	Model  string `json:"model,omitempty"`
	Procs  int    `json:"procs"`
	// TimeSec is the run's end-to-end virtual time.
	TimeSec float64 `json:"time_sec"`
	// Events is the total number of events analyzed across ranks.
	Events int `json:"events"`
	// EventsTruncated is set when any rank's ring dropped events: the
	// analysis then undercounts late activity and should be read as a
	// prefix view. DroppedEvents totals the discards.
	EventsTruncated bool  `json:"events_truncated,omitempty"`
	DroppedEvents   int64 `json:"dropped_events,omitempty"`
	// TotalWaitSec is all blocked (EvWait) time summed over ranks.
	TotalWaitSec float64     `json:"total_wait_sec"`
	WaitStates   []WaitState `json:"wait_states"`
	CriticalPath Path        `json:"critical_path"`
	Efficiency   Efficiency  `json:"efficiency"`
	Rounds       []RoundEff  `json:"rounds,omitempty"`
}

// WaitState returns the record's entry for the given class, or nil.
func (r *Record) WaitState(class string) *WaitState {
	for i := range r.WaitStates {
		if r.WaitStates[i].Class == class {
			return &r.WaitStates[i]
		}
	}
	return nil
}

// classState is the accumulator behind one WaitState.
type classState struct {
	seconds float64
	count   int64
	causes  map[int]float64
}

func (s *classState) add(cause int, sec float64) {
	s.seconds += sec
	s.count++
	if cause >= 0 {
		if s.causes == nil {
			s.causes = make(map[int]float64)
		}
		s.causes[cause] += sec
	}
}

// Analyze runs the full post-mortem pass over a traced report. It
// returns an error when the run recorded no events (Config.TraceEvents
// was zero) — the analyzer has nothing to read then.
func Analyze(rep *mpi.Report, opts Options) (*Record, error) {
	if rep == nil {
		return nil, errors.New("analysis: nil report")
	}
	if !rep.EventTracing() {
		return nil, errors.New("analysis: run recorded no events (enable event tracing, e.g. matchbench -trace-events or mpi.WithEventTrace)")
	}
	topK := opts.TopK
	if topK <= 0 {
		topK = 10
	}
	rec := &Record{
		Schema:  SchemaVersion,
		Model:   opts.Model,
		Procs:   rep.Procs,
		TimeSec: rep.MaxVirtualTime,
	}

	// The RMA implementation has no blocking fence primitive of its
	// own: FlushAll charges the drain and the post-flush neighborhood
	// count exchange is where every rank synchronizes with its peers'
	// epochs (paper §IV-D). Its exchange waits are therefore the fence
	// waits.
	exchangeClass := ClassExchange
	if opts.Model == "RMA" {
		exchangeClass = ClassFence
	}

	states := map[string]*classState{}
	state := func(class string) *classState {
		s := states[class]
		if s == nil {
			s = &classState{}
			states[class] = s
		}
		return s
	}

	parked := state(ClassLateReceiver)
	var rounds *roundWindows
	if s := opts.Telemetry; s != nil && len(s.Points) > 0 {
		rounds = &roundWindows{pts: s.Points, wait: make([]float64, len(s.Points)), byClass: make([]map[string]float64, len(s.Points))}
	}
	for rank := 0; rank < rep.Procs; rank++ {
		if d := rep.EventDrops(rank); d > 0 {
			rec.EventsTruncated = true
			rec.DroppedEvents += d
		}
		events := rep.Events(rank)
		rec.Events += events.Len()
		if rounds != nil {
			rounds.cursor = 0
		}
		for _, chunk := range events.Chunks() {
			for i := range chunk {
				e := &chunk[i]
				switch e.Kind {
				case mpi.EvWait:
					d := e.Duration()
					rec.TotalWaitSec += d
					cause := int(e.Peer)
					if e.Class == mpi.WaitNone {
						cause = -1
					}
					class := pathClass(e.Class, exchangeClass)
					state(class).add(cause, d)
					if rounds != nil {
						rounds.add(e, class)
					}
				case mpi.EvRecv:
					// CauseT is the message's stamped arrival: a receive
					// that began after it left the message parked, and
					// the blame lands on the receiving rank, the late
					// party.
					if late := e.Start - e.CauseT; late > 1e-12 {
						parked.add(rank, late)
					}
				case mpi.EvProbe:
					if e.Peer < 0 {
						// A miss: pure polling overhead, the Send-Recv
						// driver's active busy-wait.
						state(ClassProbeSpin).add(-1, e.Duration())
					}
				}
			}
		}
	}

	rec.WaitStates = buildWaitStates(states, rec.TotalWaitSec, topK)
	rec.CriticalPath = criticalPath(rep, exchangeClass, topK)
	rec.Efficiency = efficiency(rep, rec.CriticalPath.ByKind["transfer"])
	if rounds != nil {
		rec.Rounds = rounds.records(rep.Procs)
	}
	return rec, nil
}

// buildWaitStates freezes the accumulators into sorted WaitState rows:
// blocked classes first by seconds, then derived classes by seconds.
func buildWaitStates(states map[string]*classState, totalWait float64, topK int) []WaitState {
	derived := map[string]bool{ClassProbeSpin: true, ClassLateReceiver: true}
	out := make([]WaitState, 0, len(states))
	for class, s := range states {
		if s.seconds <= 0 && s.count == 0 {
			continue
		}
		ws := WaitState{Class: class, Seconds: s.seconds, Count: s.count, Derived: derived[class]}
		if totalWait > 0 {
			ws.Share = s.seconds / totalWait
		}
		ws.TopCauses = topCauses(s.causes, topK)
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Derived != out[j].Derived {
			return !out[i].Derived
		}
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// topCauses returns the k heaviest entries of a cause map, by seconds
// then rank (deterministic).
func topCauses(causes map[int]float64, k int) []Cause {
	if len(causes) == 0 {
		return nil
	}
	out := make([]Cause, 0, len(causes))
	for r, s := range causes {
		out = append(out, Cause{Rank: r, Seconds: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Rank < out[j].Rank
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// efficiency computes the POP factorization from the per-rank phase
// profiles and the critical path's transfer time.
func efficiency(rep *mpi.Report, transferCP float64) Efficiency {
	var sum, maxU float64
	for r := 0; r < rep.Procs; r++ {
		p := rep.RankProfile(r)
		u := p.Compute + p.Pack + p.Unpack
		sum += u
		if u > maxU {
			maxU = u
		}
	}
	e := Efficiency{
		AvgUsefulSec: sum / float64(rep.Procs),
		MaxUsefulSec: maxU,
	}
	T := rep.MaxVirtualTime
	if T <= 0 {
		return e
	}
	if maxU > 0 {
		e.LoadBalance = e.AvgUsefulSec / maxU
	}
	e.CommEff = maxU / T
	e.ParallelEff = e.AvgUsefulSec / T
	noTransfer := T - transferCP
	e.TransferEff = noTransfer / T
	if noTransfer > 0 {
		e.SerializationEff = maxU / noTransfer
	}
	return e
}

// roundWindows resolves blocked time per driver round. Analyze's one
// pass hands it every rank's blocked intervals, rank by rank, and it
// clips them to the windows between consecutive telemetry round
// boundaries; records then reports per-round wait volume, wait fraction
// and the dominant blocked class.
type roundWindows struct {
	pts []telemetry.Point
	// cursor is the first window the current rank's next wait can
	// touch: a rank's events (by End) and the windows are both
	// time-sorted, so it only moves forward until Analyze resets it for
	// the next rank.
	cursor  int
	wait    []float64
	byClass []map[string]float64
}

// add spreads one blocked interval of the current rank over the windows
// it crosses.
func (rw *roundWindows) add(e *mpi.Event, class string) {
	pts := rw.pts
	for rw.cursor < len(pts) && pts[rw.cursor].Time <= e.Start {
		rw.cursor++
	}
	for i, lo := rw.cursor, e.Start; i < len(pts) && lo < e.End; i++ {
		hi := min(pts[i].Time, e.End)
		if d := hi - lo; d > 0 {
			if rw.byClass[i] == nil {
				rw.byClass[i] = map[string]float64{}
			}
			rw.wait[i] += d
			rw.byClass[i][class] += d
		}
		lo = hi
	}
}

func (rw *roundWindows) records(procs int) []RoundEff {
	out := make([]RoundEff, len(rw.pts))
	for i, p := range rw.pts {
		re := RoundEff{Round: p.Round, TimeSec: p.Time, WaitSec: rw.wait[i]}
		start := 0.0
		if i > 0 {
			start = rw.pts[i-1].Time
		}
		if width := p.Time - start; width > 0 {
			re.WaitFrac = rw.wait[i] / (width * float64(procs))
		}
		for class, sec := range rw.byClass[i] {
			if sec > re.DominantShare {
				re.Dominant, re.DominantShare = class, sec
			} else if sec == re.DominantShare && re.Dominant != "" && class < re.Dominant {
				re.Dominant = class
			}
		}
		if rw.wait[i] > 0 {
			re.DominantShare /= rw.wait[i]
		}
		out[i] = re
	}
	return out
}

// Label formats a run identity for rendered output.
func Label(model string, procs int) string {
	if model == "" {
		return fmt.Sprintf("p=%d", procs)
	}
	return fmt.Sprintf("%s p=%d", model, procs)
}
