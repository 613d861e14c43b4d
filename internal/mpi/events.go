package mpi

import (
	"fmt"
	"sync"
)

// Structured event tracing. When Config.TraceEvents > 0 every rank
// records one Event per runtime primitive — sends, receives, probes,
// blocked waits, collectives, neighborhood rounds, one-sided operations
// — into its own log, which claims storage one fixed-size chunk at a
// time as it fills, so a traced run allocates in proportion to the
// events it records, not to the capacity it was allowed. The capacity is
// the hard cap: once a log holds that many events, further ones are
// counted in a drop counter instead of evicting older ones, so a
// truncated trace is always the prefix of the run and stays sorted by
// virtual time. With tracing off the only cost on any primitive is one
// nil check, which keeps the pinned AllocsPerRun contracts intact.
//
// Snapshots are exposed through Report.Events / Report.EventDrops and
// the exporters in export.go (Chrome trace_event JSON) and profile.go
// (phase breakdown).

// EventKind classifies a traced runtime primitive.
type EventKind uint8

// Event kinds, one per traced primitive family.
const (
	// EvSend is an Isend/Ssend completing at the sender.
	EvSend EventKind = iota
	// EvRecv is a Recv/RecvInto completing (including its blocked time).
	EvRecv
	// EvProbe is an Iprobe/Probe poll; Peer is -1 on a miss.
	EvProbe
	// EvWait is a blocked interval: the clock jumping forward to a
	// remote arrival or synchronization point.
	EvWait
	// EvColl is a global collective (Barrier, Allreduce, Bcast, ...).
	EvColl
	// EvNbrColl is a blocking neighborhood collective; Tag is the
	// topology-local call sequence number (the round, for round-based
	// transports).
	EvNbrColl
	// EvNbrStart is the injection half of a nonblocking neighborhood
	// collective (INeighborAlltoallvInt64); Tag is the call sequence.
	EvNbrStart
	// EvNbrWait is the completion half (NbrRequest.WaitInto); Tag matches
	// the EvNbrStart it completes.
	EvNbrWait
	// EvPut is a one-sided put issue (origin side).
	EvPut
	// EvFlush is an RMA flush draining pending puts; Bytes is the drained
	// volume and Tag the number of distinct targets completed.
	EvFlush

	numEventKinds
)

var eventKindNames = [numEventKinds]string{
	EvSend:     "send",
	EvRecv:     "recv",
	EvProbe:    "probe",
	EvWait:     "wait",
	EvColl:     "coll",
	EvNbrColl:  "nbr_coll",
	EvNbrStart: "nbr_start",
	EvNbrWait:  "nbr_wait",
	EvPut:      "put",
	EvFlush:    "flush",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Category returns the Chrome-trace category grouping for the kind:
// "p2p", "coll", "nbr", "rma" or "wait".
func (k EventKind) Category() string {
	switch k {
	case EvSend, EvRecv, EvProbe:
		return "p2p"
	case EvColl:
		return "coll"
	case EvNbrColl, EvNbrStart, EvNbrWait:
		return "nbr"
	case EvPut, EvFlush:
		return "rma"
	case EvWait:
		return "wait"
	}
	return "other"
}

// WaitClass classifies what an EvWait event was blocked on. It is the
// runtime-level half of the wait-state taxonomy: the post-mortem
// analyzer (internal/analysis) refines it with derived states
// (probe-spin from EvProbe misses, late-receiver from send/recv
// matching) that need no runtime support.
type WaitClass uint8

const (
	// WaitNone marks an unclassified wait (no known enabling peer).
	WaitNone WaitClass = iota
	// WaitLateSender is a receive or blocking probe stalled on a user
	// message still in flight: the Scalasca "late sender" state. The
	// event's Peer is the sending world rank and CauseT the sender's
	// clock at injection.
	WaitLateSender
	// WaitNbrExchange is a stall on a neighborhood-collective chunk
	// still in flight from the Peer rank, which injected it at CauseT.
	WaitNbrExchange
	// WaitCollective is synchronization delay inside a global
	// collective: the Peer rank was the last to enter, at clock CauseT.
	WaitCollective

	numWaitClasses
)

var waitClassNames = [numWaitClasses]string{
	WaitNone:        "none",
	WaitLateSender:  "late_sender",
	WaitNbrExchange: "nbr_exchange",
	WaitCollective:  "collective",
}

func (w WaitClass) String() string {
	if int(w) < len(waitClassNames) {
		return waitClassNames[w]
	}
	return fmt.Sprintf("WaitClass(%d)", int(w))
}

// Event is one traced primitive on a rank's virtual timeline.
type Event struct {
	Kind EventKind
	// Class refines EvWait events with what the rank was blocked on;
	// WaitNone for every other kind.
	Class WaitClass
	// Peer is the world rank of the remote party (destination of a send
	// or put, source of a receive or probe hit, causing rank of a
	// classified wait), or -1 when there is no single peer
	// (unclassified waits, probe misses, flushes).
	Peer int
	// Tag is the user tag for point-to-point events, the call sequence
	// number for neighborhood events, the target count for flushes, and
	// -1 otherwise.
	Tag int
	// Bytes is the payload volume the event moved (0 for barriers,
	// waits and probe misses).
	Bytes int64
	// Start and End delimit the event on the rank's virtual clock, in
	// seconds. End is the clock when the primitive completed; events are
	// recorded at completion, so rings are sorted by End.
	Start, End float64
	// CauseT is the causing rank's local clock when it enabled this
	// rank's progress — the injection time of the message a classified
	// wait blocked on, or the last entrant's clock for a collective
	// wait. Zero for non-wait events. It is the dependency edge the
	// critical-path walk follows: the waiting rank's timeline continues
	// on Peer's timeline at CauseT.
	CauseT float64
}

// Duration returns the event's virtual-time extent in seconds.
func (e Event) Duration() float64 { return e.End - e.Start }

// eventChunk is how many events a log claims at a time. 256 events of
// 56 B are 14336 B, a runtime size class, so a chunk wastes no tail; an
// Event holds no pointer, so the collector never scans one.
const eventChunk = 256

// eventLog is one rank's capacity-bounded event log. It is written only
// by the owning rank goroutine during the run and read only after Run
// returns; readers synchronize among themselves through join.
type eventLog struct {
	// chunks holds the events in order; every chunk but the last is
	// eventChunk long and full. Nil once joined.
	chunks  [][]Event
	n       int // events stored
	limit   int // the WithEventTrace capacity
	dropped int64

	join   sync.Once
	joined []Event // a multi-chunk log as one slice, built on first read
}

func newEventLog(capacity int) *eventLog { return &eventLog{limit: capacity} }

// events returns the log as one slice. A log that fits one chunk is
// returned as stored; a longer one is joined on first read and the
// chunks released, so the log holds one copy either way and a log nobody
// reads is never copied. Safe for concurrent readers after the run.
func (l *eventLog) events() []Event {
	if l.n == 0 {
		return []Event{}
	}
	if l.n <= eventChunk {
		return l.chunks[0][:l.n]
	}
	l.join.Do(func() {
		all := make([]Event, l.n)
		for i, c := range l.chunks {
			copy(all[i*eventChunk:], c) // the last chunk may be part empty
		}
		l.joined, l.chunks = all, nil
	})
	return l.joined
}

// event records one primitive if tracing is enabled. The End timestamp
// is the rank's current clock, so callers capture Start before charging
// costs and call event after. Kept small enough to inline: the traced-off
// path must cost one predictable branch.
func (c *Comm) event(kind EventKind, peer, tag int, bytes int64, start float64) {
	if c.ps.ev != nil {
		c.record(kind, WaitNone, peer, tag, bytes, start, 0)
	}
}

// record appends one event ending at the rank's current clock to its
// log, claiming a new chunk when the last one is full, or counts it as
// dropped once the log is at capacity. It is the one place events enter
// a log, and requires tracing to be on. Not inlined, so that a disabled
// instrumentation point carries its nil check and no store code.
//
//go:noinline
func (c *Comm) record(kind EventKind, class WaitClass, peer, tag int, bytes int64, start, causeT float64) {
	l := c.ps.ev
	if l.n == l.limit {
		l.dropped++
		return
	}
	i := l.n % eventChunk
	if i == 0 {
		l.chunks = append(l.chunks, make([]Event, min(eventChunk, l.limit-l.n)))
	}
	l.chunks[len(l.chunks)-1][i] = Event{Kind: kind, Class: class, Peer: peer, Tag: tag, Bytes: bytes, Start: start, End: c.ps.now, CauseT: causeT}
	l.n++
}

// Events returns rank r's recorded events in completion order (nil
// unless the run enabled event tracing). The slice is the log's own
// storage, the same on every call; callers must not modify it.
func (r *Report) Events(rank int) []Event {
	if r.events == nil || r.events[rank] == nil {
		return nil
	}
	return r.events[rank].events()
}

// EventTracing reports whether the run recorded structured events at
// all (Config.TraceEvents > 0).
func (r *Report) EventTracing() bool { return r.events != nil }

// EventDrops returns how many events rank r's log discarded after
// reaching its capacity (0 when tracing was off or the capacity
// sufficed).
func (r *Report) EventDrops(rank int) int64 {
	if r.events == nil || r.events[rank] == nil {
		return 0
	}
	return r.events[rank].dropped
}
