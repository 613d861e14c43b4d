package matching

import (
	"fmt"
	"sort"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Communication contexts (paper §IV-B, Fig 3). For the Send-Recv
// transports the context travels as the message tag; for RMA and NCL it
// is the first word of the record.
const (
	ctxRequest int64 = 1 // sender's vertex proposes matching the edge
	ctxReject  int64 = 2 // sender's vertex matched elsewhere; deactivate
	ctxInvalid int64 = 3 // sender's vertex exhausted candidates; deactivate
)

// Per-cross-arc state bits, kept by the owning side of each arc.
const (
	arcEvicted   uint8 = 1 << iota // far endpoint no longer a candidate
	arcRequested                   // far endpoint has requested this edge
	arcResolved                    // termination accounting done for this arc
)

// Vertex states.
const (
	stUnmatched uint8 = iota
	stMatched
	stDead
)

// engine executes the distributed locally-dominant matching protocol for
// one rank. It is transport-agnostic — a driver.Kernel: the loop feeds
// incoming messages to handleMessage and drains the local work stack;
// outgoing messages go through the sender.
type engine struct {
	c  *mpi.Comm
	l  *distgraph.Local
	g  *graph.CSR
	tr transport.Sender

	// EagerReject reproduces the paper's literal Algorithm 6: a REQUEST
	// that is not immediately mutual is rejected and the edge evicted on
	// the spot, instead of being remembered. Faster convergence, but the
	// matching produced is no longer guaranteed locally dominant (see
	// DESIGN.md §3); used as an ablation.
	eagerReject bool

	lo, hi   int
	order    []int32 // the graph's KeyOrder: row v's arc positions by descending key at Offsets[v]
	ptr      []int32
	cand     []int64 // global candidate id, or -1
	state    []uint8
	mate     []int64 // global partner id, or -1
	arcFlags []uint8 // indexed by global arc index - arcBase
	arcBase  int64

	pending  int64    // unresolved cross arcs owned by this rank (the paper's nghosts sum)
	work     []int32  // stack of owned-vertex local indices to re-point
	sent     int64    // protocol messages pushed (diagnostic)
	kind     [4]int64 // cumulative pushes by context (ctxRequest..ctxInvalid)
	nmatched int64    // owned vertices currently matched
}

// newEngine builds one rank's engine around the graph's shared read-only
// key-order index (graph.CSR.KeyOrder). The rank still charges the setup
// to its virtual clock — the index rows it consumes represent the same
// O(local arcs) of sorting work an MPI rank would do locally.
func newEngine(c *mpi.Comm, l *distgraph.Local, tr transport.Sender, eagerReject bool, order []int32) *engine {
	g := l.Graph()
	nOwned := l.NumOwned()
	e := &engine{
		c: c, l: l, g: g, tr: tr,
		eagerReject: eagerReject,
		lo:          l.Lo, hi: l.Hi,
		order:    order,
		ptr:      make([]int32, nOwned),
		cand:     make([]int64, nOwned),
		state:    make([]uint8, nOwned),
		mate:     make([]int64, nOwned),
		arcBase:  g.Offsets[l.Lo],
		arcFlags: make([]uint8, g.Offsets[l.Hi]-g.Offsets[l.Lo]),
		pending:  l.TotalCrossArcs,
	}
	for i := range e.cand {
		e.cand[i] = -1
		e.mate[i] = -1
	}
	c.Compute(float64(l.LocalArcs))
	// Per-vertex protocol state memory (mirrors what an MPI rank holds).
	c.AccountAlloc(int64(nOwned)*(4+8+1+8) + int64(len(e.arcFlags)))
	return e
}

// sortedAt returns the row position of the i-th heaviest neighbor of
// owned vertex v (global id), reading the shared index.
func (e *engine) sortedAt(v int, i int32) int32 {
	return e.order[e.g.Offsets[v]+int64(i)]
}

// owns reports whether global vertex v is owned here.
func (e *engine) owns(v int64) bool { return int(v) >= e.lo && int(v) < e.hi }

// arcIndex locates the global arc position of edge (x, y) in x's row;
// x must be owned. CSR rows are sorted by neighbor id.
func (e *engine) arcIndex(x, y int64) int64 {
	nbrs := e.g.Neighbors(int(x))
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(y) })
	if i == len(nbrs) || nbrs[i] != int32(y) {
		panic(fmt.Sprintf("matching: rank %d: message references nonexistent edge {%d,%d}", e.c.Rank(), x, y))
	}
	return e.g.Offsets[x] + int64(i)
}

func (e *engine) flags(arc int64) *uint8 { return &e.arcFlags[arc-e.arcBase] }

// resolve marks a cross arc's termination accounting complete.
func (e *engine) resolve(f *uint8) {
	if *f&arcResolved == 0 {
		*f |= arcResolved
		e.pending--
	}
}

// push emits a protocol message for the owner of ghost vertex x.
func (e *engine) push(ctx, x, y int64) {
	e.sent++
	e.kind[ctx]++
	e.tr.Send(e.l.Owner(int(x)), ctx, x, y)
}

// Pending implements driver.Kernel: a rank with no unresolved cross arcs
// owes nothing to anyone.
func (e *engine) Pending() int64 { return e.pending }

// Record appends one telemetry row at a loop round boundary: the
// rank's clock, unresolved cross-arc count, matched vertices, the
// cumulative per-kind protocol counters, the live mailbox occupancy and
// the transport's per-destination volume ledger. One nil check when off.
func (e *engine) Record(log *telemetry.RoundLog, vol []int64) {
	if log == nil {
		return
	}
	log.Append(e.c.Now(), e.pending, e.nmatched,
		e.kind[ctxRequest], e.kind[ctxReject], e.kind[ctxInvalid],
		e.c.QueuedBytes(), vol)
}

// availableArc reports whether the neighbor at row position pos of owned
// vertex v is still a matching candidate. A self loop never is.
func (e *engine) availableArc(v int, pos int32) bool {
	nbr := int(e.g.Neighbors(v)[pos])
	if nbr >= e.lo && nbr < e.hi {
		return nbr != v && e.state[nbr-e.lo] == stUnmatched
	}
	return e.arcFlags[e.g.Offsets[v]+int64(pos)-e.arcBase]&arcEvicted == 0
}

// findMate implements the paper's FINDMATE (Algorithm 4) for owned
// vertex index vi: point at the heaviest available neighbor, matching
// immediately when the pointing is mutual (locally, or via a remembered
// remote REQUEST), and issuing a REQUEST when the candidate is a ghost.
// A vertex whose current candidate is still available returns without
// action, so redundant work-stack entries are harmless.
func (e *engine) findMate(vi int32) {
	if e.state[vi] != stUnmatched {
		return
	}
	v := int(vi) + e.lo
	row := e.g.Neighbors(v)
	if c := e.cand[vi]; c >= 0 {
		if e.availableArc(v, e.sortedAt(v, e.ptr[vi])) {
			return
		}
	}
	for e.ptr[vi] < int32(len(row)) {
		e.c.Compute(1)
		if e.availableArc(v, e.sortedAt(v, e.ptr[vi])) {
			break
		}
		e.ptr[vi]++
	}
	if e.ptr[vi] == int32(len(row)) {
		e.die(vi)
		return
	}
	pos := e.sortedAt(v, e.ptr[vi])
	u := int64(row[pos])
	e.cand[vi] = u
	if e.owns(u) {
		ui := int32(int(u) - e.lo)
		if e.cand[ui] == int64(v) {
			e.matchLocal(vi, ui)
		}
		return
	}
	arc := e.g.Offsets[v] + int64(pos)
	f := e.flags(arc)
	if *f&arcRequested != 0 {
		// The ghost already requested us: the pointing is mutual. Match
		// here and send our REQUEST so the ghost's owner completes too.
		e.mate[vi] = u
		e.state[vi] = stMatched
		e.nmatched++
		*f |= arcEvicted
		e.resolve(f)
		e.push(ctxRequest, u, int64(v))
		e.afterMatch(vi)
		return
	}
	e.push(ctxRequest, u, int64(v))
}

// die implements FINDMATE's invalidation branch: the vertex has no
// candidates left; broadcast INVALID over any still-unresolved cross
// arcs and release local vertices pointing at it. (Under the default
// protocol every cross arc is already resolved by the time a vertex
// exhausts its pointer — eviction only travels with resolution — so the
// broadcast loop is defensive; under EagerReject it can fire.)
func (e *engine) die(vi int32) {
	e.cand[vi] = -1
	e.state[vi] = stDead
	v := int64(int(vi) + e.lo)
	row := e.g.Neighbors(int(v))
	for i, a := range row {
		e.c.Compute(1)
		if e.owns(int64(a)) {
			ai := int32(int(a) - e.lo)
			if e.state[ai] == stUnmatched && e.cand[ai] == v {
				e.work = append(e.work, ai)
			}
			continue
		}
		arc := e.g.Offsets[v] + int64(i)
		f := e.flags(arc)
		if *f&arcResolved == 0 {
			*f |= arcEvicted
			e.resolve(f)
			e.push(ctxInvalid, int64(a), v)
		}
	}
}

// matchLocal records the match of two owned vertices and processes both
// neighborhoods.
func (e *engine) matchLocal(vi, ui int32) {
	e.mate[vi] = int64(int(ui) + e.lo)
	e.mate[ui] = int64(int(vi) + e.lo)
	e.state[vi] = stMatched
	e.state[ui] = stMatched
	e.nmatched += 2
	e.afterMatch(vi)
	e.afterMatch(ui)
}

// afterMatch implements PROCESSNEIGHBORS (Algorithm 5) for a newly
// matched owned vertex: reject all other still-active cross arcs and
// re-point local vertices that were pointing here.
func (e *engine) afterMatch(vi int32) {
	v := int64(int(vi) + e.lo)
	row := e.g.Neighbors(int(v))
	for i, a := range row {
		e.c.Compute(1)
		if int64(a) == e.mate[vi] {
			continue
		}
		if e.owns(int64(a)) {
			ai := int32(int(a) - e.lo)
			if e.state[ai] == stUnmatched && e.cand[ai] == v {
				e.work = append(e.work, ai)
			}
			continue
		}
		arc := e.g.Offsets[v] + int64(i)
		f := e.flags(arc)
		if *f&arcResolved == 0 {
			*f |= arcEvicted
			e.resolve(f)
			e.push(ctxReject, int64(a), v)
		}
	}
}

// handleMessage implements PROCESSINCOMINGDATA (Algorithm 6) for one
// record targeting owned vertex x from remote vertex y.
func (e *engine) handleMessage(ctx, x, y int64) {
	e.c.Compute(1)
	if !e.owns(x) {
		panic(fmt.Sprintf("matching: rank %d received message for vertex %d outside [%d,%d)", e.c.Rank(), x, e.lo, e.hi))
	}
	xi := int32(int(x) - e.lo)
	arc := e.arcIndex(x, y)
	f := e.flags(arc)
	switch ctx {
	case ctxRequest:
		if *f&arcResolved != 0 {
			// Stale: we already matched elsewhere / rejected this edge;
			// our notification is in flight to them.
			return
		}
		if e.state[xi] == stUnmatched && e.cand[xi] == y {
			// Mutual pointing: complete the match on this side. The
			// requester completes on receiving our REQUEST (already sent
			// when we pointed at y).
			e.mate[xi] = y
			e.state[xi] = stMatched
			e.nmatched++
			*f |= arcEvicted
			e.resolve(f)
			e.afterMatch(xi)
			return
		}
		if e.eagerReject {
			// Paper's literal Algorithm 6: no memory of requesters —
			// deactivate the edge and reject immediately.
			*f |= arcEvicted
			e.resolve(f)
			e.push(ctxReject, y, x)
			return
		}
		*f |= arcRequested
	case ctxReject, ctxInvalid:
		if *f&arcResolved != 0 {
			// Both sides deactivated concurrently; nothing left to do.
			return
		}
		*f |= arcEvicted
		e.resolve(f)
		if e.state[xi] == stUnmatched && e.cand[xi] == y {
			e.work = append(e.work, xi)
		}
	default:
		panic(fmt.Sprintf("matching: unknown message context %d", ctx))
	}
}

// DrainWork runs findMate for every queued re-point request.
func (e *engine) DrainWork() {
	for len(e.work) > 0 {
		vi := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.findMate(vi)
	}
}

// Start runs the first phase: every owned vertex points at its best
// candidate (Algorithm 3 lines 2-3), including the cascade of local
// matches that triggers.
func (e *engine) Start() {
	for vi := int32(0); vi < int32(e.l.NumOwned()); vi++ {
		e.findMate(vi)
		e.DrainWork()
	}
}

// writeMates copies this rank's owned mate values into the shared global
// result vector (disjoint ranges per rank, so no synchronization needed).
func (e *engine) writeMates(global []int) {
	for i, m := range e.mate {
		global[e.lo+i] = int(m)
	}
}
