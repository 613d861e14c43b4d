package matching

import (
	"fmt"
	"sync/atomic"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
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
//
// Host state is what the protocol needs and no more: 9 B per owned vertex
// (ptr, cand, state) and two bits per local arc (asked, closed). The
// mates live in the caller's result vector. The modeled MPI rank's
// memory is charged separately (AccountAlloc in newEngine).
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

	lo, hi  int
	order   []int32 // the graph's KeyOrder: row v's arc positions by descending key at Offsets[v]
	mirror  []int32 // the graph's Mirror over the rank's arcs: for local arc a, the owned endpoint's position in the far endpoint's row
	ptr     []int32
	cand    []int32 // global candidate id, or -1
	state   []uint8
	mate    []int32 // this rank's [lo:hi] view of the result vector: global partner id, or -1
	arcBase int64   // global index of the rank's first arc; bit a of the sets below is arc arcBase+a

	// Two bits per local arc, used on cross arcs only (by the owning side
	// of each). closed: the far endpoint is no longer a candidate and the
	// arc's termination accounting is done (eviction and resolution always
	// happen together). asked: the far endpoint has requested this edge.
	closed, asked []uint64

	pending  int64    // unresolved cross arcs owned by this rank (the paper's nghosts sum)
	work     []int32  // stack of owned-vertex local indices to re-point
	sent     int64    // protocol messages pushed (diagnostic)
	kind     [4]int64 // cumulative pushes by context (ctxRequest..ctxInvalid)
	nmatched int64    // owned vertices currently matched

	// units counts the compute units (one per arc scanned or walked,
	// one per record handled) not yet charged to the clock; settle
	// charges them.
	units int64

	// slot, when set, is the rank's entry in the graph's Start memo
	// (startLogs): Start replays the log it holds, or records one into
	// rec and publishes it there once Start is done.
	slot *atomic.Pointer[startLog]
	rec  *startLog
}

// newEngine builds one rank's engine around the graph's shared read-only
// key-order and mirror indexes (graph.CSR.KeyOrder, Mirror). The rank
// still charges the setup to its virtual clock — the index rows it
// consumes represent the same O(local arcs) of sorting work an MPI rank
// would do locally. The mirror is host addressing only: records keep
// their three words and every charge stays what it was. The engine
// writes its owned vertices' mates straight into mates[l.Lo:l.Hi].
func newEngine(c *mpi.Comm, l *distgraph.Local, tr transport.Sender, eagerReject bool, order, mirror []int32, mates []int32) *engine {
	g := l.Graph()
	nOwned := l.NumOwned()
	arcs := g.Offsets[l.Hi] - g.Offsets[l.Lo]
	words := (arcs + 63) / 64
	e := &engine{
		c: c, l: l, g: g, tr: tr,
		eagerReject: eagerReject,
		lo:          l.Lo, hi: l.Hi,
		order:   order,
		mirror:  mirror[g.Offsets[l.Lo]:g.Offsets[l.Hi]],
		ptr:     make([]int32, nOwned),
		cand:    make([]int32, nOwned),
		state:   make([]uint8, nOwned),
		mate:    mates[l.Lo:l.Hi],
		arcBase: g.Offsets[l.Lo],
		closed:  make([]uint64, words),
		asked:   make([]uint64, words),
		pending: l.TotalCrossArcs,
	}
	for i := range e.cand {
		e.cand[i] = -1
		e.mate[i] = -1
	}
	c.Compute(float64(l.LocalArcs))
	// Per-vertex protocol state memory of the modeled MPI rank (int32
	// pointer, int64 candidate, state byte, int64 mate) plus a flag byte
	// per arc — not the Go layout above.
	c.AccountAlloc(int64(nOwned)*(4+8+1+8) + arcs)
	return e
}

// owns reports whether global vertex v is owned here.
func (e *engine) owns(v int) bool { return v >= e.lo && v < e.hi }

// isClosed reports whether local arc a is closed.
func (e *engine) isClosed(a int64) bool { return e.closed[a>>6]&(1<<(a&63)) != 0 }

// close evicts and resolves local arc a, reporting whether it was still
// open; only the first close of an arc counts against pending.
func (e *engine) close(a int64) bool {
	w, b := &e.closed[a>>6], uint64(1)<<(a&63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	e.pending--
	return true
}

// isAsked reports whether local arc a's far endpoint has requested it.
func (e *engine) isAsked(a int64) bool { return e.asked[a>>6]&(1<<(a&63)) != 0 }

// ask remembers a REQUEST received over local arc a.
func (e *engine) ask(a int64) { e.asked[a>>6] |= 1 << (a & 63) }

// open reports whether neighbor u of owned vertex v, across local arc
// a, is still a matching candidate. A self loop never is.
func (e *engine) open(v, u int, a int64) bool {
	if e.owns(u) {
		return u != v && e.state[u-e.lo] == stUnmatched
	}
	return !e.isClosed(a)
}

// settle charges the units counted since the last settle. It runs
// before every push and at the end of every entry point (Start,
// DrainWork, handleMessage), so the clock is exact whenever the
// transport or the loop reads it, and Comm.ComputeUnits makes the charge
// bit-identical to one Compute(1) per unit.
func (e *engine) settle() {
	e.c.ComputeUnits(e.units)
	e.units = 0
}

// push emits a protocol message from owned vertex v over local arc a to
// the owner of ghost u, addressed to u's arc back (transport.PackTarget).
// The units counted so far are charged first; a recording Start logs
// them with the send.
func (e *engine) push(ctx int64, u int32, v int, a int64) {
	if e.rec != nil {
		e.rec.send(e.units, a, ctx, int32(v-e.lo))
	}
	e.settle()
	e.sent++
	e.kind[ctx]++
	e.tr.Send(e.l.Owner(int(u)), ctx, transport.PackTarget(u, e.mirror[a]), int64(v))
}

// Pending implements driver.Kernel: a rank with no unresolved cross arcs
// owes nothing to anyone.
func (e *engine) Pending() int64 { return e.pending }

// Row implements driver.Kernel: unresolved cross arcs, matched
// vertices and the cumulative per-kind protocol counters.
func (e *engine) Row() (unresolved, done, req, rej, inv int64) {
	return e.pending, e.nmatched, e.kind[ctxRequest], e.kind[ctxReject], e.kind[ctxInvalid]
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
	base := e.g.Offsets[v]
	row := e.g.Adj[base:e.g.Offsets[v+1]]
	order := e.order[base : base+int64(len(row))]
	local := base - e.arcBase // the row's first local arc
	p := e.ptr[vi]
	if e.cand[vi] >= 0 {
		if pos := order[p]; e.open(v, int(row[pos]), local+int64(pos)) {
			return
		}
	}
	// One unit per arc scanned, the one that stops the scan included.
	p0 := p
	for ; p < int32(len(row)); p++ {
		if pos := order[p]; e.open(v, int(row[pos]), local+int64(pos)) {
			break
		}
	}
	e.ptr[vi] = p
	if p == int32(len(row)) {
		e.units += int64(p - p0)
		e.die(vi)
		return
	}
	e.units += int64(p - p0 + 1)
	pos := order[p]
	u := row[pos]
	e.cand[vi] = u
	if e.owns(int(u)) {
		ui := u - int32(e.lo)
		if e.cand[ui] == int32(v) {
			e.matchLocal(vi, ui)
		}
		return
	}
	a := local + int64(pos)
	if e.isAsked(a) {
		// The ghost already requested us: the pointing is mutual. Match
		// here and send our REQUEST so the ghost's owner completes too.
		e.mate[vi] = u
		e.state[vi] = stMatched
		e.nmatched++
		e.close(a)
		e.push(ctxRequest, u, v, a)
		e.afterMatch(vi)
		return
	}
	e.push(ctxRequest, u, v, a)
}

// die implements FINDMATE's invalidation branch: the vertex has no
// candidates left; broadcast INVALID over any still-unresolved cross
// arcs and release local vertices pointing at it. (Under the default
// protocol every cross arc is already resolved by the time a vertex
// exhausts its pointer — eviction only travels with resolution — so the
// broadcast is defensive; under EagerReject it can fire.)
func (e *engine) die(vi int32) {
	e.cand[vi] = -1
	e.state[vi] = stDead
	e.release(vi, ctxInvalid)
}

// matchLocal records the match of two owned vertices and processes both
// neighborhoods.
func (e *engine) matchLocal(vi, ui int32) {
	e.mate[vi] = ui + int32(e.lo)
	e.mate[ui] = vi + int32(e.lo)
	e.state[vi] = stMatched
	e.state[ui] = stMatched
	e.nmatched += 2
	e.afterMatch(vi)
	e.afterMatch(ui)
}

// afterMatch implements PROCESSNEIGHBORS (Algorithm 5) for a newly
// matched owned vertex: reject all other still-active cross arcs and
// re-point local vertices that were pointing here.
func (e *engine) afterMatch(vi int32) { e.release(vi, ctxReject) }

// release is the neighborhood walk shared by afterMatch (ctx REJECT)
// and die (ctx INVALID): every arc but the one to vi's mate (a dead
// vertex has none) closes with a ctx notification if still open, and
// local vertices pointing at vi are queued to re-point.
func (e *engine) release(vi int32, ctx int64) {
	v := int(vi) + e.lo
	base := e.g.Offsets[v]
	row := e.g.Adj[base:e.g.Offsets[v+1]]
	local := base - e.arcBase
	mate := e.mate[vi]
	// One unit per arc walked; a push first counts the arcs up to and
	// including its own.
	counted := 0
	for i, u := range row {
		if u == mate {
			continue
		}
		if e.owns(int(u)) {
			ui := u - int32(e.lo)
			if e.state[ui] == stUnmatched && e.cand[ui] == int32(v) {
				e.work = append(e.work, ui)
			}
			continue
		}
		if a := local + int64(i); e.close(a) {
			e.units += int64(i + 1 - counted)
			counted = i + 1
			e.push(ctx, u, v, a)
		}
	}
	e.units += int64(len(row) - counted)
}

// handleMessage implements PROCESSINCOMINGDATA (Algorithm 6) for one
// record targeting owned vertex x from remote vertex y; the record's x
// word carries y's position in x's row, which locates the arc. The
// record costs one unit.
func (e *engine) handleMessage(ctx, target, y int64) {
	e.units++
	e.handle(ctx, target, y)
	e.settle()
}

func (e *engine) handle(ctx, target, y int64) {
	x, pos := transport.UnpackTarget(target)
	if !e.owns(int(x)) {
		panic(fmt.Sprintf("matching: rank %d received message for vertex %d outside [%d,%d)", e.c.Rank(), x, e.lo, e.hi))
	}
	row := e.g.Offsets[x]
	if uint64(pos) >= uint64(e.g.Offsets[x+1]-row) {
		panic(fmt.Sprintf("matching: rank %d: record from %d names position %d of vertex %d's row of %d", e.c.Rank(), y, pos, x, e.g.Offsets[x+1]-row))
	}
	xi := int32(int(x) - e.lo)
	a := row + pos - e.arcBase
	switch ctx {
	case ctxRequest:
		if e.isClosed(a) {
			// Stale: we already matched elsewhere / rejected this edge;
			// our notification is in flight to them.
			return
		}
		if e.state[xi] == stUnmatched && int64(e.cand[xi]) == y {
			// Mutual pointing: complete the match on this side. The
			// requester completes on receiving our REQUEST (already sent
			// when we pointed at y).
			e.mate[xi] = int32(y)
			e.state[xi] = stMatched
			e.nmatched++
			e.close(a)
			e.afterMatch(xi)
			return
		}
		if e.eagerReject {
			// Paper's literal Algorithm 6: no memory of requesters —
			// deactivate the edge and reject immediately.
			e.close(a)
			e.push(ctxReject, int32(y), int(x), a)
			return
		}
		e.ask(a)
	case ctxReject, ctxInvalid:
		if !e.close(a) {
			// Both sides deactivated concurrently; nothing left to do.
			return
		}
		if e.state[xi] == stUnmatched && int64(e.cand[xi]) == y {
			e.work = append(e.work, xi)
		}
	default:
		panic(fmt.Sprintf("matching: unknown message context %d", ctx))
	}
}

// DrainWork runs findMate for every queued re-point request.
func (e *engine) DrainWork() {
	e.drain()
	e.settle()
}

func (e *engine) drain() {
	for len(e.work) > 0 {
		vi := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.findMate(vi)
	}
}

// Start runs the first phase: every owned vertex points at its best
// candidate (Algorithm 3 lines 2-3), including the cascade of local
// matches that triggers. It reads only the rank's share of the graph,
// so with a memo slot it runs once per graph and rank count: the first
// Start records its sends and final state, later ones replay them
// (startLog).
func (e *engine) Start() {
	if e.slot != nil {
		if log := e.slot.Load(); log != nil {
			e.replay(log)
			return
		}
		if len(e.mirror) <= maxLoggedArc {
			e.rec = new(startLog)
		}
	}
	for vi := int32(0); vi < int32(e.l.NumOwned()); vi++ {
		e.findMate(vi)
		e.drain()
	}
	if e.rec != nil {
		e.rec.finish(e)
		e.slot.CompareAndSwap(nil, e.rec)
		e.rec = nil
	}
	e.settle()
}

// startLog is one rank's Start, recorded for replay. Start sees no
// record (handleMessage runs only after it), so what it does depends on
// the graph and the rank count alone: under every model, cost model,
// schedule and protocol (EagerReject changes only how records are
// handled) the same vertices point at the same candidates and push the
// same records, and only the clock the charges land on differs. A
// replay therefore makes the same calls in the same order —
// Comm.ComputeUnits with each logged run of units, then Sender.Send
// with the logged record — and copies the state Start left. Every
// transport, ledger, event ring and perturbation draw sees the calls it
// saw before, and every charge keeps its bits.
//
// The log lives as long as the graph, so it is compact: 12 B a send
// (sends and from) and 9 B an owned vertex plus a bit an arc (the state
// copies). What Start leaves that is not here is implied: asked is all
// zero, work is empty, a matched vertex's mate is its cand, and sent
// and kind count the logged sends.
type startLog struct {
	// sends holds one entry per push: local arc << 32 | units << 2 |
	// ctx, units being the ones counted since the previous push. from
	// holds each entry's owned source vertex, as an index.
	sends []uint64
	from  []int32
	tail  int64 // units counted after the last push

	ptr, cand         []int32
	state             []uint8
	closed            []uint64
	pending, nmatched int64
}

// maxLoggedArc bounds the local arcs a rank may hold to record its
// Start; a larger rank computes it every run. Start counts at most 4
// units per local arc (each arc is scanned once as ptr advances and
// walked once when its row is released; each findMate that stops
// recounts one arc, and there is one per owned vertex with arcs and one
// per re-point, at most one per local arc), so under this bound every
// run of units fits the 30 bits an entry gives it.
const maxLoggedArc = 1<<28 - 1

// send logs a push over local arc a from owned vertex index vi, after
// units counted since the previous one.
func (s *startLog) send(units, a, ctx int64, vi int32) {
	s.sends = append(s.sends, uint64(a)<<32|uint64(units)<<2|uint64(ctx))
	s.from = append(s.from, vi)
}

// finish copies the state e's Start leaves, and trims the send log to
// its length: it is kept for the graph's lifetime.
func (s *startLog) finish(e *engine) {
	s.sends, s.from = exact(s.sends), exact(s.from)
	s.tail = e.units
	s.ptr, s.cand = exact(e.ptr), exact(e.cand)
	s.state, s.closed = exact(e.state), exact(e.closed)
	s.pending, s.nmatched = e.pending, e.nmatched
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// replay makes the calls log's Start made, in its order, and leaves the
// state it left.
func (e *engine) replay(log *startLog) {
	for i, s := range log.sends {
		a := int64(s >> 32)
		e.units += int64(uint32(s) >> 2)
		e.push(int64(s&3), e.g.Adj[e.arcBase+a], int(log.from[i])+e.lo, a)
	}
	e.units += log.tail
	e.settle()
	copy(e.ptr, log.ptr)
	copy(e.cand, log.cand)
	copy(e.state, log.state)
	copy(e.closed, log.closed)
	for i, st := range e.state {
		if st == stMatched {
			e.mate[i] = e.cand[i]
		}
	}
	e.pending, e.nmatched = log.pending, log.nmatched
}

// startKey keys a graph's Start memo by rank count.
type startKey int

// startLogs returns g's Start memo for procs ranks: one slot per rank,
// empty until that rank's first Start has returned. A run that fails
// before a rank's Start returns leaves the rank's slot empty, and the
// next run records it afresh; two runs recording at once record the
// same log, and the first to finish keeps its own.
func startLogs(g *graph.CSR, procs int) []atomic.Pointer[startLog] {
	if procs < 1 {
		return nil // the run fails before any rank starts
	}
	return g.Memo(startKey(procs), func() any {
		return make([]atomic.Pointer[startLog], procs)
	}).([]atomic.Pointer[startLog])
}
