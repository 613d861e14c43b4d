package mpi

import (
	"fmt"
	"math"
)

// This file implements distributed termination (quiescence) detection —
// the primitive an asynchronous engine needs where the round-structured
// engines use a per-round counting allreduce. A computation over a
// communicator is quiescent when every rank is passive (no local work)
// and no application message is in flight or queued unprocessed; an
// asynchronous protocol with data-dependent traffic cannot observe this
// locally, so the runtime provides Safra's token-ring algorithm (EWD
// 998) as a reusable detector.
//
// The detector's messages travel on a copy of the application's Comm
// with a private message context — what real MPI libraries get from
// MPI_Comm_dup to keep library traffic out of the application's tag
// space. That matters doubly here, because the application side of an
// asynchronous engine receives with (AnySource, AnyTag) wildcards that
// would otherwise swallow the token.
//
// Algorithm (token forwarded rank 0 -> 1 -> ... -> p-1 -> 0):
//
//   - every rank keeps a message-count deficit (records sent minus
//     records received, maintained by the application via NoteSend and
//     NoteRecv) and a color: receiving an application message makes a
//     rank black.
//   - rank 0, when first idle, launches a white token carrying an
//     accumulator of 0. A rank holding the token forwards it when idle,
//     adding its deficit to the accumulator, blackening the token if
//     the rank is black, and turning itself white.
//   - when the token returns to an idle rank 0, termination is
//     concluded iff the token is white, rank 0 is white, and the
//     accumulated deficit plus rank 0's own is zero. Otherwise a fresh
//     white token goes around.
//   - on conclusion rank 0 circulates a TERM message (carrying the
//     detection instant) once around the ring; every rank observes Done
//     after relaying it.
//
// Safety (no false termination) is Safra's invariant and holds under
// every legal reordering the runtime models: latency jitter and rank
// slowdowns only delay the token, and a blackened rank forces at least
// one more full circuit after any receive. Forced Iprobe misses
// (sched.Rank.ForceMiss) are bounded, and the blocking paths (Block,
// Quiesce) are never forced to miss, so a quiescent system is always
// detected after at most two further circuits: guaranteed progress.

// Detector messages travel on the private context under these tags.
const (
	quiesceTokenTag = 0 // payload: {accumulated deficit, token color}
	quiesceTermTag  = 1 // payload: {detection instant, as float bits}
)

// Quiesce is a distributed termination detector for one communicator.
// Construction is collective; afterwards each rank drives its own
// detector from its protocol loop:
//
//	NoteSend(n) / NoteRecv(n)  account application records
//	Idle()                     nonblocking: pass the token on, conclude
//	Block()                    sleep until app or detector traffic
//	Quiesce()                  blocking drive once app traffic is done
//
// The intended engine loop is: drain application messages (counting
// them), do local work, and when both run dry call Idle; if Idle does
// not report termination, Block and go around again. A rank must call
// Idle before Block — Idle is where a held token is released, and a
// rank sleeping on the token would stall the ring.
type Quiesce struct {
	app  *Comm // application communicator being monitored
	tok  *Comm // app on the detector's private context (nil when p == 1)
	p    int
	rank int
	prev int // ring predecessor (tokens arrive from it)
	next int // ring successor (tokens leave toward it)

	deficit int64 // application records sent minus received
	black   bool  // received an application record since last hand-off

	holding  bool  // this rank holds the token
	tokAccum int64 // held token's accumulated deficit
	tokBlack bool  // held token's color
	started  bool  // rank 0: first token launched

	done       bool
	detectedAt float64 // virtual instant of rank 0's conclusion

	buf [2]int64 // send/receive scratch for detector payloads
}

// NewQuiesce builds a detector over c. The call is collective: it
// allocates a private message context for the detector's traffic (no-op
// in a single-rank world, where quiescence is a local condition).
func NewQuiesce(c *Comm) *Quiesce {
	q := &Quiesce{app: c, p: c.Size(), rank: c.Rank(), detectedAt: -1}
	if q.p > 1 {
		tok := *c
		tok.ctx = int32(c.newID())
		q.tok = &tok
		q.prev = (q.rank + q.p - 1) % q.p
		q.next = (q.rank + 1) % q.p
	}
	return q
}

// NoteSend accounts n application records this rank has sent (or
// irrevocably queued for transmission). Must be called no later than
// the send itself — counting before the message can possibly be
// received is what makes the deficit sum a safe in-flight bound.
func (q *Quiesce) NoteSend(n int) { q.deficit += int64(n) }

// NoteRecv accounts n application records this rank has received and
// processed, and blackens the rank: any receive since the last token
// hand-off invalidates the current circuit, forcing another one.
func (q *Quiesce) NoteRecv(n int) {
	q.deficit -= int64(n)
	q.black = true
}

// Done reports whether global termination has been detected.
func (q *Quiesce) Done() bool { return q.done }

// Idle drives the detector from a locally idle rank without blocking:
// it launches or relays the token, consumes any detector traffic that
// has arrived, and reports whether global termination is detected. The
// caller must be passive — no unprocessed application records it
// intends to handle and no local work — though a message that slips in
// concurrently only costs an extra circuit, never a false positive
// (the in-flight record keeps the deficit sum nonzero).
func (q *Quiesce) Idle() bool {
	for !q.done {
		if q.p == 1 {
			// Single-rank world: quiescence is local. A nonzero deficit
			// means self-addressed records are still queued.
			if q.deficit == 0 {
				q.conclude()
			}
			return q.done
		}
		if q.rank == 0 && !q.started {
			q.launch()
			continue
		}
		if q.holding {
			q.handOff()
			continue
		}
		// Nonblocking check for the token or TERM. A forced Iprobe miss
		// is safe: the caller's Block wakes on the same message and the
		// next Idle retries, and misses are bounded.
		ok, st := q.tok.IprobeRecvInto(q.prev, AnyTag, q.buf[:])
		if !ok {
			return false
		}
		q.applyDetector(st.Tag)
	}
	return true
}

// Block parks the rank until an application message (any source, any
// tag) or detector traffic is available, whichever exists first. Like a
// blocking Probe it charges one probe overhead and books the stall as a
// late-sender wait; it is never forced to miss. Poisoned worlds unwind
// with the standard peer-failure panic, so a rank parked here exits
// cleanly on deadline or peer-error teardown.
func (q *Quiesce) Block() {
	if q.done {
		return
	}
	if q.holding {
		panic("mpi: Quiesce.Block called while holding the token; call Idle first")
	}
	c := q.app
	c.probeWait("quiescence wait", func(mb *mailbox) found {
		if f := mb.match(AnySource, AnyTag, c.ctx, c.ps.now); f.e != nil || q.tok == nil {
			return f
		}
		return mb.match(q.prev, AnyTag, q.tok.ctx, c.ps.now)
	})
}

// Quiesce drives the detector to conclusion using only blocking,
// exact-source operations and returns the detection instant. It is for
// ranks that have finished every application send AND receive they will
// ever perform (a counted protocol's end, a test harness): under that
// contract the detection instant is a pure function of the virtual
// timeline — bit-identical across scheduler modes and GOMAXPROCS.
// Engines with data-dependent traffic must use Idle/Block instead: a
// rank inside Quiesce no longer watches application traffic.
func (q *Quiesce) Quiesce() float64 {
	if q.p == 1 {
		if q.deficit != 0 {
			panic(fmt.Sprintf("mpi: Quiesce on a single-rank world with deficit %d: self-addressed records can never be received", q.deficit))
		}
		if !q.done {
			q.conclude()
		}
		return q.detectedAt
	}
	for !q.done {
		if q.rank == 0 && !q.started {
			q.launch()
			continue
		}
		if q.holding {
			q.handOff()
			continue
		}
		q.recvDetector()
	}
	return q.detectedAt
}

// launch sends the first white token (rank 0 only). Launching is a
// hand-off: rank 0 turns white.
func (q *Quiesce) launch() {
	q.started = true
	q.black = false
	q.sendToken(0, false)
}

// handOff releases a held token from an idle rank: relay with this
// rank's contribution folded in, or — back at rank 0 — test Safra's
// conclusion predicate and either finish or start a fresh circuit.
func (q *Quiesce) handOff() {
	q.holding = false
	if q.rank == 0 {
		if !q.tokBlack && !q.black && q.tokAccum+q.deficit == 0 {
			q.conclude()
			return
		}
		q.launch()
		return
	}
	q.sendToken(q.tokAccum+q.deficit, q.tokBlack || q.black)
	q.black = false
}

// conclude records detection and, in multi-rank worlds, circulates the
// TERM message once around the ring.
func (q *Quiesce) conclude() {
	q.done = true
	q.detectedAt = q.app.Now()
	if q.tok != nil {
		q.buf[0] = int64(math.Float64bits(q.detectedAt))
		q.tok.Isend(q.next, quiesceTermTag, q.buf[:1])
	}
}

// sendToken forwards the token with the given accumulator and color.
func (q *Quiesce) sendToken(accum int64, black bool) {
	q.buf[0] = accum
	q.buf[1] = 0
	if black {
		q.buf[1] = 1
	}
	q.tok.Isend(q.next, quiesceTokenTag, q.buf[:2])
}

// recvDetector blocks for one detector message from the ring
// predecessor and applies it.
func (q *Quiesce) recvDetector() {
	_, st := q.tok.RecvInto(q.prev, AnyTag, q.buf[:])
	q.applyDetector(st.Tag)
}

// applyDetector applies the detector message just received into q.buf:
// tokens are held for the next hand-off, TERM is relayed (short of rank
// 0, which originated it) and finishes this rank.
func (q *Quiesce) applyDetector(tag int) {
	switch tag {
	case quiesceTokenTag:
		q.tokAccum, q.tokBlack = q.buf[0], q.buf[1] != 0
		q.holding = true
	case quiesceTermTag:
		q.done = true
		q.detectedAt = math.Float64frombits(uint64(q.buf[0]))
		if q.next != 0 {
			q.tok.Isend(q.next, quiesceTermTag, q.buf[:1])
		}
	default:
		panic(fmt.Sprintf("mpi: unexpected detector tag %d", tag))
	}
}
