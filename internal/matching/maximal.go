package matching

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// This file implements the repo's first asynchronous engine family: a
// Skipper-style maximal-matching protocol (single pass over local
// edges, proposal/accept/decline messages, no round barrier). It
// contrasts with the half-approximate engine on every axis the paper
// cares about: termination is *detected* (mpi.Quiesce) rather than
// counted per round, message arrival order decides which maximal
// matching emerges (the result is schedule-dependent by design, unlike
// the locally-dominant protocol's invariant matching), and a rank with
// a light block finishes its scan and goes passive immediately instead
// of re-synchronizing with stragglers every round.
//
// Protocol. Each vertex v scans its sorted adjacency row once,
// considering only upward neighbors u > v (the downward edge is u's
// responsibility; orienting proposals up the id order makes every
// wait-for chain strictly increasing, hence acyclic, hence
// deadlock-free):
//
//   - free local target: match immediately.
//   - pending target (local or the proposal's remote owner finds it
//     pending): the proposal is *deferred* — parked at the target — not
//     rejected; the scan cursor stays put.
//   - matched target: skip / DECLINE, cursor advances.
//   - a vertex resolving its own fate (matched, or scan exhausted)
//     releases its deferred proposers: it accepts the lowest-id one if
//     it is still free (exhausted case) and declines the rest.
//
// Maximality: suppose edge {v,u}, v < u, with both endpoints free at
// termination. v's scan reached u (the cursor only passes u on a
// DECLINE or a local skip, both of which certify u was matched —
// permanent — contradiction), so v is parked pending at u; but then
// u's resolution either matched v or left a message in flight, and
// quiescence says there are none. Hence no such edge.
const (
	mxPropose int64 = 1 // sender's vertex proposes matching the edge
	mxDecline int64 = 2 // target is (or became) matched; proposer moves on
	mxAccept  int64 = 3 // target accepted; both sides matched
)

// Vertex states of the maximal engine.
const (
	mxsVirgin    uint8 = iota // scan not finished, not waiting on anyone
	mxsPending                // proposal outstanding (cursor parked on the target)
	mxsExhausted              // scan done, still free: open to proposals
	mxsMatched
)

// maximalMaxPerArc sizes the round-flavor transports' buffers: the
// protocol sends at most one record per directed cross arc — a proposal
// up the edge, or its single accept/decline response down it.
const maximalMaxPerArc = 1

// mxEngine executes the asynchronous maximal-matching protocol for one
// rank. It is transport-agnostic exactly like the half-approx engine — a
// driver.Detected kernel: the loop feeds incoming records to
// handleMessage and drains the local work stack. In async mode q
// accounts every protocol record with the quiescence detector; in round
// mode q is nil and the loop's counting allreduce sums InFlight.
type mxEngine struct {
	c  *mpi.Comm
	l  *distgraph.Local
	g  *graph.CSR
	tr transport.Sender
	q  *mpi.Quiesce

	lo, hi   int
	ptr      []int32 // scan cursor into the (ascending) adjacency row
	state    []uint8
	mate     []int64   // global partner id, or -1
	deferred [][]int64 // proposer ids parked at a pending target

	unsettled int64 // owned vertices not yet matched or exhausted
	work      []int32
	sent      int64
	recvd     int64
	kind      [4]int64 // cumulative pushes by context (mxPropose..mxAccept)
	nmatched  int64
}

func newMxEngine(c *mpi.Comm, l *distgraph.Local, tr transport.Sender, q *mpi.Quiesce) *mxEngine {
	g := l.Graph()
	nOwned := l.NumOwned()
	e := &mxEngine{
		c: c, l: l, g: g, tr: tr, q: q,
		lo: l.Lo, hi: l.Hi,
		ptr:       make([]int32, nOwned),
		state:     make([]uint8, nOwned),
		mate:      make([]int64, nOwned),
		deferred:  make([][]int64, nOwned),
		unsettled: int64(nOwned),
	}
	for i := range e.mate {
		e.mate[i] = -1
	}
	// Per-vertex protocol state memory (mirrors what an MPI rank holds).
	c.AccountAlloc(int64(nOwned) * (4 + 1 + 8 + 24))
	return e
}

// owns reports whether global vertex v is owned here.
func (e *mxEngine) owns(v int64) bool { return int(v) >= e.lo && int(v) < e.hi }

// push emits a protocol record for the owner of remote vertex x. In
// async mode the record is accounted with the detector *before* it is
// handed to the transport — counting no later than the send is what
// keeps the deficit a safe in-flight bound even when the transport
// parks the record in an aggregation batch.
func (e *mxEngine) push(ctx, x, y int64) {
	e.sent++
	e.kind[ctx]++
	if e.q != nil {
		e.q.NoteSend(1)
	}
	e.tr.Send(e.l.Owner(int(x)), ctx, x, y)
}

// Pending implements driver.Kernel: the fence (or the false-termination
// check after detection) wants every vertex matched or exhausted.
func (e *mxEngine) Pending() int64 { return e.unsettled }

// InFlight implements driver.Detected.
func (e *mxEngine) InFlight() int64 { return e.sent - e.recvd }

// Row implements driver.Kernel, reusing the round-log schema with the
// analogous meaning per slot: unresolved = unsettled vertices,
// req = proposals, rej = declines, inv = accepts.
func (e *mxEngine) Row() (unresolved, done, req, rej, inv int64) {
	return e.unsettled, e.nmatched, e.kind[mxPropose], e.kind[mxDecline], e.kind[mxAccept]
}

// setMatched finalizes owned vertex vi with the given partner.
func (e *mxEngine) setMatched(vi int32, mate int64) {
	if e.state[vi] == mxsMatched {
		panic(fmt.Sprintf("matching: rank %d: vertex %d matched twice (%d then %d)",
			e.c.Rank(), int(vi)+e.lo, e.mate[vi], mate))
	}
	if e.state[vi] != mxsExhausted {
		e.unsettled--
	}
	e.state[vi] = mxsMatched
	e.mate[vi] = mate
	e.nmatched++
}

// decline tells proposer d (parked on the declining vertex) to move on.
func (e *mxEngine) decline(d, from int64) {
	if e.owns(d) {
		e.declinedLocal(int32(int(d) - e.lo))
		return
	}
	e.push(mxDecline, d, from)
}

// declineDeferred releases every proposer parked at vi with a decline
// (vi just matched someone else).
func (e *mxEngine) declineDeferred(vi int32) {
	list := e.deferred[vi]
	if len(list) == 0 {
		return
	}
	e.deferred[vi] = nil
	v := int64(int(vi) + e.lo)
	for _, d := range list {
		e.decline(d, v)
	}
}

// acceptDeferred resolves a free vertex that holds parked proposers:
// accept the lowest id (a deterministic local tie-break), decline the
// rest.
func (e *mxEngine) acceptDeferred(vi int32) {
	v := int64(int(vi) + e.lo)
	list := e.deferred[vi]
	e.deferred[vi] = nil
	best := list[0]
	for _, d := range list[1:] {
		if d < best {
			best = d
		}
	}
	e.setMatched(vi, best)
	for _, d := range list {
		if d != best {
			e.decline(d, v)
		}
	}
	if e.owns(best) {
		// The proposer is local and was pending on v: complete its side
		// and release anyone parked on *it*.
		bi := int32(int(best) - e.lo)
		e.setMatched(bi, v)
		e.declineDeferred(bi)
		return
	}
	e.push(mxAccept, best, v)
}

// matchPair matches two owned vertices (the scanning vi and its free
// local target ui).
func (e *mxEngine) matchPair(vi, ui int32) {
	e.setMatched(vi, int64(int(ui)+e.lo))
	e.setMatched(ui, int64(int(vi)+e.lo))
	e.declineDeferred(vi)
	e.declineDeferred(ui)
}

// declinedLocal resumes owned vertex di after the target it was pending
// on turned it down: step past the target, then either resolve with a
// parked proposer or queue the scan to continue.
func (e *mxEngine) declinedLocal(di int32) {
	e.ptr[di]++
	e.state[di] = mxsVirgin
	if len(e.deferred[di]) > 0 {
		e.acceptDeferred(di)
		return
	}
	e.work = append(e.work, di)
}

// advance continues vi's single scan over its adjacency row from the
// parked cursor. Each arc is visited at most once across the whole run:
// the cursor only ever moves forward, parking while a proposal is
// outstanding.
func (e *mxEngine) advance(vi int32) {
	if e.state[vi] != mxsVirgin {
		return // stale work entry: vi got resolved while queued
	}
	v := int(vi) + e.lo
	row := e.g.Neighbors(v)
	for e.ptr[vi] < int32(len(row)) {
		e.c.Compute(1)
		u := int64(row[e.ptr[vi]])
		if u <= int64(v) {
			e.ptr[vi]++ // downward edge: u's scan owns it
			continue
		}
		if e.owns(u) {
			ui := int32(int(u) - e.lo)
			switch e.state[ui] {
			case mxsMatched:
				e.ptr[vi]++
				continue
			case mxsPending:
				e.deferred[ui] = append(e.deferred[ui], int64(v))
				e.state[vi] = mxsPending
				return
			default: // free
				e.matchPair(vi, ui)
				return
			}
		}
		e.state[vi] = mxsPending
		e.push(mxPropose, u, int64(v))
		return
	}
	// Scan exhausted while free.
	if len(e.deferred[vi]) > 0 {
		e.acceptDeferred(vi)
		return
	}
	e.state[vi] = mxsExhausted
	e.unsettled--
}

// handleMessage processes one protocol record targeting owned vertex x
// from remote vertex y.
func (e *mxEngine) handleMessage(ctx, x, y int64) {
	e.c.Compute(1)
	e.recvd++
	if e.q != nil {
		e.q.NoteRecv(1)
	}
	if !e.owns(x) {
		panic(fmt.Sprintf("matching: rank %d received message for vertex %d outside [%d,%d)", e.c.Rank(), x, e.lo, e.hi))
	}
	xi := int32(int(x) - e.lo)
	switch ctx {
	case mxPropose:
		switch e.state[xi] {
		case mxsMatched:
			e.push(mxDecline, y, x)
		case mxsPending:
			e.deferred[xi] = append(e.deferred[xi], y)
		default: // free: accept on the spot
			e.setMatched(xi, y)
			e.push(mxAccept, y, x)
			e.declineDeferred(xi)
		}
	case mxAccept:
		// x was pending on y; y's owner accepted.
		e.setMatched(xi, y)
		e.declineDeferred(xi)
	case mxDecline:
		e.declinedLocal(xi)
	default:
		panic(fmt.Sprintf("matching: unknown message context %d", ctx))
	}
}

// DrainWork runs advance for every queued scan-resume request.
func (e *mxEngine) DrainWork() {
	for len(e.work) > 0 {
		vi := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.advance(vi)
	}
}

// Start runs the single pass: every owned vertex starts its scan,
// including the cascade of local matches that triggers.
func (e *mxEngine) Start() {
	for vi := int32(0); vi < int32(e.l.NumOwned()); vi++ {
		e.advance(vi)
		e.DrainWork()
	}
}

// writeMates copies this rank's owned mate values into the shared global
// result vector (disjoint ranges per rank, so no synchronization needed).
func (e *mxEngine) writeMates(global []int) {
	for i, m := range e.mate {
		global[e.lo+i] = int(m)
	}
}
