// Package transport provides the seven MPI communication-model backends
// shared by the owner-computes graph algorithms in this repository
// (matching, coloring, BFS): point-to-point Send-Recv (eager or
// synchronous, optionally sender-aggregated), blocking neighborhood
// collectives, one-sided RMA with precomputed displacements, pipelined
// nonblocking neighborhood collectives, and message-combining
// neighborhood collectives over persistent schedules (nclc.go).
//
// Construction goes through the factory (factory.go): transport.New
// maps a Model to its Backend, and Model.Flavor tells the driver which
// loop shape — Async polling or bulk-synchronous Rounds — the backend
// wants.
//
// All backends move fixed-shape protocol records {ctx, x, y}: ctx is an
// application-defined small positive integer (it travels as the message
// tag on the point-to-point path, per the paper's §IV-B), x is the
// target vertex (owned by the destination rank) and y the remote vertex.
// What the backends share exists once, in this file: ledger is the
// rank's process-graph neighborhood and the per-neighbor volume ledger
// behind every backend's VolumeByNeighbor; stage is the per-neighbor
// staging area — buffers that grow to what a round stages, and the Send
// that fills them under the per-edge message bound (the distribution's
// cross-arc counts times the application's per-arc record limit) —
// embedded by the three neighborhood-collective backends; deliver is the
// unpack loop at the end of every buffered receive side. A backend adds
// only how its records travel.
package transport

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/mpi"
)

// recordWords is the wire size of one record for buffered backends.
const recordWords = 3

// recordBytes is the ledger cost of one record in VolumeByNeighbor: every
// backend moves the same three-word logical record, so volumes stay
// comparable across models regardless of wire framing (the P2P path
// carries ctx in the tag, batched paths add count headers).
const recordBytes = recordWords * 8

// Handler consumes one received protocol record.
type Handler func(ctx, x, y int64)

// Sender is the downcall surface applications use to emit records.
type Sender interface {
	// Send queues or transmits record {ctx, x, y} to rank dst. ctx must
	// be a positive int that fits a message tag.
	Send(dst int, ctx, x, y int64)
}

// Async is the point-to-point flavor: records are transmitted
// immediately and the application polls for arrivals. Its Finish must be
// called when the algorithm decides local termination, since peers may
// depend on records still parked locally.
type Async interface {
	Backend
	// Drain delivers every currently queued record to h; reports whether
	// any was delivered.
	Drain(h Handler) bool
	// Block waits until at least one record is queued.
	Block()
}

// Round is the bulk-synchronous flavor: records accumulate until
// Exchange, which transmits, receives, and delivers.
type Round interface {
	Backend
	// Exchange performs one communication round and delivers received
	// records to h, returning how many were delivered.
	Exchange(h Handler) int
}

// ledger is the rank's view of its process-graph neighborhood: the
// Local whose NeighborRanks every send must target, and the cumulative
// per-neighbor payload ledger behind every backend's VolumeByNeighbor
// (see Backend), element i toward Local.NeighborRanks[i]. The ledger is
// allocated on the first VolumeByNeighbor call, so an untelemetered run
// carries none and the point-to-point backends skip the neighbor lookup;
// the telemetry layer calls it before the backend's first Send and so
// still observes every byte. Sends before that call are deliberately not
// back-filled.
type ledger struct {
	model Model // named in the non-neighbor panic
	l     *distgraph.Local
	vol   []int64
}

// VolumeByNeighbor implements Backend; the first call allocates the ledger.
func (g *ledger) VolumeByNeighbor() []int64 {
	if g.vol == nil {
		g.vol = make([]int64, len(g.l.NeighborRanks))
	}
	return g.vol
}

// neighbor returns dst's position in the process graph; a send outside
// it is a protocol error.
func (g *ledger) neighbor(dst int) int {
	i := g.l.NeighborIndex(dst)
	if i < 0 {
		panic(fmt.Sprintf("transport: %v send to non-neighbor rank %d", g.model, dst))
	}
	return i
}

// note accounts one record toward neighbor i.
func (g *ledger) note(i int) {
	if g.vol != nil {
		g.vol[i] += recordBytes
	}
}

// highWater charges the modeled allocation ledger for the part of a
// buffer footprint of bytes that exceeds its previous peak. Memory is
// accounted from actual per-round usage: real implementations size
// aggregation buffers to per-round volume, far below the lifetime
// protocol bound the backends check as an overflow guard. The host's own
// staging buffers grow the same way (see stage), so the model and the
// simulator's footprint follow the same curve.
func highWater(c *mpi.Comm, peak *int64, bytes int64) {
	if bytes > *peak {
		c.AccountAlloc(bytes - *peak)
		*peak = bytes
	}
}

// deliver hands every record in words to h, charging one unpack each,
// and returns how many there were. Every buffered backend's receive side
// ends here, whatever carried the words (a neighborhood collective, a
// coalesced message, a window region).
func deliver(c *mpi.Comm, words []int64, h Handler) int {
	for k := 0; k+recordWords <= len(words); k += recordWords {
		c.Unpack(1)
		h(words[k], words[k+1], words[k+2])
	}
	return len(words) / recordWords
}

// stage is the per-neighbor record staging area of the three
// neighborhood-collective backends (NCL, NCLI, NCLC): one buffer per
// process-graph neighbor. A buffer starts empty and grows by append to
// the most a round has staged for its neighbor, keeping that capacity
// across rounds, so host memory follows use; the per-edge protocol bound
// — CrossArcs × maxPerArc records per round — is checked arithmetically
// in Send. Backends embed it, so its Send is theirs.
type stage struct {
	ledger
	c         *mpi.Comm
	maxPerArc int64
	out       [][]int64
	peak      int64 // high-water of buffer bytes actually used
}

func newStage(m Model, c *mpi.Comm, l *distgraph.Local, maxPerArc int64) stage {
	return stage{ledger: ledger{model: m, l: l}, c: c, maxPerArc: maxPerArc, out: make([][]int64, len(l.NeighborRanks))}
}

// Send implements Sender: stage the record for its process-graph
// neighbor, bounded by the per-arc protocol guarantee.
func (s *stage) Send(dst int, ctx, x, y int64) {
	i := s.neighbor(dst)
	s.note(i)
	if int64(len(s.out[i])) >= s.l.CrossArcs[i]*s.maxPerArc*recordWords {
		panic(fmt.Sprintf("transport: %v buffer overflow to rank %d (per-edge message bound violated)", s.model, dst))
	}
	s.c.Pack(1)
	s.out[i] = append(s.out[i], ctx, x, y)
}

// staged returns the words currently staged across all neighbors.
func (s *stage) staged() int64 {
	var words int64
	for i := range s.out {
		words += int64(len(s.out[i]))
	}
	return words
}

// reset empties the staging buffers, keeping their capacity. Exchanges
// reset before delivery: handlers queue next-round records into the same
// buffers (the runtime copied the payloads).
func (s *stage) reset() {
	for i := range s.out {
		s.out[i] = s.out[i][:0]
	}
}

// account books a round that used words of buffer space.
func (s *stage) account(words int64) { highWater(s.c, &s.peak, words*8) }

// --- P2P: Send-Recv -------------------------------------------------------

// P2P sends each record as one point-to-point message with the context
// in the tag (the paper's NSR baseline); Synchronous selects
// synchronous-mode sends (the MatchBox-P model).
type P2P struct {
	ledger
	C           *mpi.Comm
	Synchronous bool
	sbuf        [2]int64 // send scratch (the runtime copies payloads)
	rbuf        [2]int64 // receive scratch for IprobeRecvInto
}

// NewP2P returns a Send-Recv backend over the neighborhood l.
func NewP2P(c *mpi.Comm, l *distgraph.Local, synchronous bool) *P2P {
	m := ModelNSR
	if synchronous {
		m = ModelMBP
	}
	return &P2P{ledger: ledger{model: m, l: l}, C: c, Synchronous: synchronous}
}

// Send implements Sender. The destination is looked up, and checked to
// be a neighbor, only while the ledger is live.
func (t *P2P) Send(dst int, ctx, x, y int64) {
	if t.vol != nil {
		t.note(t.neighbor(dst))
	}
	t.sbuf[0], t.sbuf[1] = x, y
	if t.Synchronous {
		t.C.Ssend(dst, int(ctx), t.sbuf[:])
	} else {
		t.C.Isend(dst, int(ctx), t.sbuf[:])
	}
}

// Drain implements Async.
func (t *P2P) Drain(h Handler) bool {
	any := false
	for {
		ok, st := t.C.IprobeRecvInto(mpi.AnySource, mpi.AnyTag, t.rbuf[:])
		if !ok {
			return any
		}
		h(int64(st.Tag), t.rbuf[0], t.rbuf[1])
		any = true
	}
}

// Block implements Async.
func (t *P2P) Block() {
	t.C.Probe(mpi.AnySource, mpi.AnyTag)
}

// Finish implements Async (every record was already transmitted).
func (t *P2P) Finish() {}

// --- NCL: blocking neighborhood collectives --------------------------------

// NCL aggregates records per process-graph neighbor and exchanges them
// once per round with a blocking count exchange plus payload alltoallv
// (paper §IV-D(c)).
type NCL struct {
	stage
	topo *mpi.Topo

	// Per-round scratch, reused so a steady-state Exchange allocates
	// nothing: outgoing/incoming counts, and the received chunks — views
	// into the neighbors' send boxes, valid until the next exchange.
	counts   []int64
	incoming []int64
	in       [][]int64
}

// NewNCL returns a blocking neighborhood-collective backend whose
// buffers hold maxPerArc records per cross arc per direction.
func NewNCL(c *mpi.Comm, topo *mpi.Topo, l *distgraph.Local, maxPerArc int64) *NCL {
	deg := len(l.NeighborRanks)
	return &NCL{
		stage:    newStage(ModelNCL, c, l, maxPerArc),
		topo:     topo,
		counts:   make([]int64, deg),
		incoming: make([]int64, deg),
		in:       make([][]int64, deg),
	}
}

// Exchange implements Round: counts via MPI_Neighbor_alltoall, payloads
// via MPI_Neighbor_alltoallv, then delivery.
func (t *NCL) Exchange(h Handler) int {
	for i := range t.out {
		t.counts[i] = int64(len(t.out[i]))
	}
	incoming := t.topo.NeighborAlltoallInt64Into(t.counts, 1, t.incoming)
	t.in = t.topo.NeighborAlltoallvInt64Into(t.out, t.in)
	usage := t.staged()
	for _, data := range t.in {
		usage += int64(len(data))
	}
	t.account(usage)
	t.reset()
	n := 0
	for i, data := range t.in {
		if int64(len(data)) != incoming[i] {
			panic(fmt.Sprintf("transport: NCL count exchange disagrees with payload: %d vs %d", incoming[i], len(data)))
		}
		n += deliver(t.c, data, h)
	}
	return n
}

// Finish implements Round (no-op for the blocking backend).
func (t *NCL) Finish() {}

// --- RMA: one-sided puts ----------------------------------------------------

// RMA implements the paper's §IV-D(b) scheme (Fig 1): every rank's
// window is partitioned into per-neighbor regions sized from the ghost
// counts; a prefix sum plus one neighborhood alltoall gives each origin
// its base displacement in every target's window; each record is one
// MPI_Put at base + cursor; a per-round flush plus count exchange tells
// targets how much arrived.
type RMA struct {
	ledger
	c    *mpi.Comm
	topo *mpi.Topo
	win  mpi.WinHandle

	maxPerArc   int64
	regionStart []int64
	writeBase   []int64
	writeCursor []int64
	roundMark   []int64
	readCursor  []int64

	// Per-round scratch, reused so a steady-state Exchange (and each
	// Send's 3-word put record) allocates nothing.
	rec      [recordWords]int64
	delta    []int64
	incoming []int64
	arrived  []int64 // one neighbor's records, read out of the window
}

// NewRMA collectively creates the window and exchanges displacement
// bases within the process neighborhood.
func NewRMA(c *mpi.Comm, topo *mpi.Topo, l *distgraph.Local, maxPerArc int64) *RMA {
	deg := len(l.NeighborRanks)
	t := &RMA{
		c: c, topo: topo, maxPerArc: maxPerArc,
		ledger:      ledger{model: ModelRMA, l: l},
		regionStart: make([]int64, deg),
		writeCursor: make([]int64, deg),
		roundMark:   make([]int64, deg),
		readCursor:  make([]int64, deg),
		delta:       make([]int64, deg),
		incoming:    make([]int64, deg),
	}
	var total int64
	for i, arcs := range l.CrossArcs {
		t.regionStart[i] = total
		total += arcs * maxPerArc * recordWords
	}
	t.win = c.WinCreate(int(total))
	t.writeBase = topo.NeighborAlltoallInt64(t.regionStart, 1)
	c.AccountAlloc(int64(deg) * 4 * 8)
	return t
}

// Send implements Sender with a one-sided put at the precomputed
// displacement.
func (t *RMA) Send(dst int, ctx, x, y int64) {
	i := t.neighbor(dst)
	t.note(i)
	if t.writeCursor[i] >= t.l.CrossArcs[i]*t.maxPerArc {
		panic(fmt.Sprintf("transport: RMA region overflow to rank %d (per-edge message bound violated)", dst))
	}
	disp := t.writeBase[i] + t.writeCursor[i]*recordWords
	t.rec[0], t.rec[1], t.rec[2] = ctx, x, y
	t.win.Put(dst, int(disp), t.rec[:])
	t.writeCursor[i]++
}

// Exchange implements Round: flush, neighborhood count exchange, then
// read newly arrived records from the local window.
func (t *RMA) Exchange(h Handler) int {
	t.win.FlushAll()
	for i := range t.delta {
		t.delta[i] = t.writeCursor[i] - t.roundMark[i]
		t.roundMark[i] = t.writeCursor[i]
	}
	incoming := t.topo.NeighborAlltoallInt64Into(t.delta, 1, t.incoming)
	n := 0
	for i := range incoming {
		base := t.regionStart[i] + t.readCursor[i]*recordWords
		t.arrived = t.win.ReadLocal(t.arrived, int(base), int(incoming[i]*recordWords))
		n += deliver(t.c, t.arrived, h)
		t.readCursor[i] += incoming[i]
	}
	return n
}

// Finish implements Round.
func (t *RMA) Finish() {}

// Free collectively releases the window.
func (t *RMA) Free() { t.win.Free() }

// --- NCLI: pipelined nonblocking neighborhood collectives -------------------

// NCLI extends the study with MPI-3 nonblocking neighborhood collectives:
// double-buffered rounds where round k's records travel while round
// k-1's are processed. The protocol needs no count exchange: a real
// implementation preposts receives at the per-edge bound, which is what
// Send enforces. The host's two staging halves each grow to what the
// rounds they carry stage, like stage's own buffers.
type NCLI struct {
	stage
	topo     *mpi.Topo
	spare    [][]int64 // the other half of the double buffer
	in       [][]int64 // received chunks: views valid until the next exchange
	inflight *mpi.NbrRequest
}

// NewNCLI returns the pipelined nonblocking backend.
func NewNCLI(c *mpi.Comm, topo *mpi.Topo, l *distgraph.Local, maxPerArc int64) *NCLI {
	return &NCLI{
		stage: newStage(ModelNCLI, c, l, maxPerArc),
		topo:  topo,
		spare: make([][]int64, len(l.NeighborRanks)),
		in:    make([][]int64, len(l.NeighborRanks)),
	}
}

// Exchange implements Round: start the nonblocking send of the current
// buffers, then complete and deliver the previous round's exchange.
func (t *NCLI) Exchange(h Handler) int {
	usage := 2 * t.staged() // double-buffered: filling + in-flight copies
	req := t.topo.INeighborAlltoallvInt64(t.out)
	t.out, t.spare = t.spare, t.out
	t.reset()
	n := 0
	if t.inflight != nil {
		t.in = t.inflight.WaitInto(t.in)
		for _, data := range t.in {
			usage += int64(len(data))
			n += deliver(t.c, data, h)
		}
	}
	t.account(usage)
	t.inflight = req
	return n
}

// Finish drains the final in-flight exchange; anything it carries is
// stale once the algorithm's global termination condition held.
func (t *NCLI) Finish() {
	if t.inflight != nil {
		t.in = t.inflight.WaitInto(t.in)
		t.inflight = nil
	}
}

// --- P2PAgg: Send-Recv with sender-side aggregation -------------------------

// aggTag is the reserved tag carrying coalesced record batches;
// application contexts must stay below it.
const aggTag = 1 << 20

// P2PAgg is Send-Recv with sender-side message coalescing: records for
// one destination accumulate in a small buffer and travel as one message
// when the buffer fills or the sender goes idle. The paper remarks that
// "while it is possible to make the Send-Recv version optimal, handling
// message aggregation in irregular applications is challenging" (§V-D);
// this backend is that optimization, kept correct by flushing before
// every blocking wait so no rank stalls on records parked in a peer's
// buffer.
type P2PAgg struct {
	ledger
	c         *mpi.Comm
	batch     int
	out       [][]int64 // partial batches, by neighbor position
	used      int       // neighbors ever batched for
	rbuf      []int64   // receive scratch: one full batch
	accounted int64
}

// NewP2PAgg returns an aggregating Send-Recv backend over the
// neighborhood l, batching up to batch records per destination
// (batch >= 1).
func NewP2PAgg(c *mpi.Comm, l *distgraph.Local, batch int) *P2PAgg {
	if batch < 1 {
		panic(fmt.Sprintf("transport: P2PAgg batch = %d", batch))
	}
	return &P2PAgg{ledger: ledger{model: ModelNSRA, l: l}, c: c, batch: batch, out: make([][]int64, len(l.NeighborRanks)), rbuf: make([]int64, batch*recordWords)}
}

// Send implements Sender: append to the destination's batch, flushing
// when full. The one neighbor lookup a record costs finds both its batch
// and its ledger cell. The modeled footprint is one full batch per
// destination used so far.
func (t *P2PAgg) Send(dst int, ctx, x, y int64) {
	i := t.neighbor(dst)
	t.note(i)
	t.c.Pack(1)
	if t.out[i] == nil {
		t.used++
		highWater(t.c, &t.accounted, int64(8*t.batch*recordWords*t.used))
	}
	buf := append(t.out[i], ctx, x, y)
	if len(buf) >= t.batch*recordWords {
		t.c.Isend(dst, aggTag, buf)
		buf = buf[:0]
	}
	t.out[i] = buf
}

// flushAll transmits every partial batch in neighbor order, which is
// ascending rank. A map range here would emit the flushes in Go's
// randomized iteration order, introducing a run-to-run send reordering
// that is NOT one of the runtime's modeled perturbation points — it would
// break replayability of perturbed schedules (same seed, different
// transcript) for a reason no real MPI library has. A flush costs the
// rank's degree, not the world size.
func (t *P2PAgg) flushAll() {
	for i, buf := range t.out {
		if len(buf) > 0 {
			t.c.Isend(t.l.NeighborRanks[i], aggTag, buf)
			t.out[i] = buf[:0]
		}
	}
}

// Drain implements Async, unpacking coalesced batches.
func (t *P2PAgg) Drain(h Handler) bool {
	any := false
	for {
		ok, st := t.c.IprobeRecvInto(mpi.AnySource, mpi.AnyTag, t.rbuf)
		if !ok {
			return any
		}
		if st.Tag != aggTag {
			panic(fmt.Sprintf("transport: P2PAgg received non-batch tag %d", st.Tag))
		}
		deliver(t.c, t.rbuf[:st.Count], h)
		any = true
	}
}

// Block implements Async: partial batches are flushed first — a rank
// about to wait must not sit on records its peers need for progress.
func (t *P2PAgg) Block() {
	t.flushAll()
	t.c.Probe(mpi.AnySource, mpi.AnyTag)
}

// Finish implements Async: a locally-terminated rank still owes its
// peers whatever sits in partial batches.
func (t *P2PAgg) Finish() {
	t.flushAll()
}
