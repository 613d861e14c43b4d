package mpi

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Topo is a distributed graph process topology, the analogue of a
// communicator created with MPI_Dist_graph_create_adjacent. Each rank
// declares the set of ranks it communicates with; neighborhood collectives
// then involve only those ranks. The topology must be symmetric: if j is
// a neighbor of i, then i must be a neighbor of j (CreateGraphTopo
// verifies this and panics naming the pair otherwise, since an asymmetric
// topology would deadlock neighborhood collectives).
type Topo struct {
	c         *Comm
	neighbors []int
	seq       int64 // per-call sequence, advances identically on all members

	// The carrier (see "The carrier" below). peers and at are fixed at
	// creation; ring, pub and waitOn are read by the neighbors.
	peers  []*Topo // neighbor i's handle on this topology
	at     []int32 // this rank's position in neighbor i's list: its entry in their boxes
	ring   atomic.Pointer[[]*box]
	pub    atomic.Int64         // calls published: call s is readable once pub > s
	waitOn atomic.Pointer[Topo] // the neighbor whose next publication wakes the suspended owner
	held   []*box               // neighbors' boxes the last receive half returned views into
	rx     nbrRecv              // the receive half in progress
	parts  [][]int64            // the fixed-chunk form's per-neighbor views, sent then received
}

// nbrRecv is the receive half of one call in progress: kept across the
// suspensions of a step form, so the resumed call pulls from the neighbor
// it stopped at and books its event as the uninterrupted call would.
type nbrRecv struct {
	seq       int64   // the call being received
	next      int     // the next neighbor to pull from
	from      float64 // the call's start, for its event
	sent, got int64   // bytes sent and received by the call
	live      bool
}

// CreateGraphTopo collectively creates a distributed graph topology from
// each rank's adjacency list. The call is collective over the world (as
// MPI_Dist_graph_create_adjacent is over its communicator); ranks with no
// neighbors pass an empty list. Neighbor order is preserved: buffers in
// neighborhood collectives are laid out in this order, exactly as in MPI.
func (c *Comm) CreateGraphTopo(neighbors []int) *Topo {
	for _, nb := range neighbors {
		c.checkRank(nb, "CreateGraphTopo")
		if nb == c.rank {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: rank %d listed itself as a neighbor", c.rank))
		}
	}
	t := &Topo{c: c, neighbors: slices.Clone(neighbors), held: make([]*box, 0, len(neighbors))}
	distinct := t.neighbors
	if !slices.IsSorted(distinct) {
		distinct = slices.Clone(neighbors)
		slices.Sort(distinct)
	}
	for i := 1; i < len(distinct); i++ {
		if distinct[i] == distinct[i-1] {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: rank %d listed neighbor %d twice", c.rank, distinct[i]))
		}
	}
	t.ring.Store(&[]*box{t.newBox(), t.newBox()})
	t.peers = c.joinTopo(t)

	if c.w.n <= topoVerifyDenseLimit {
		// Worlds this small pay for verification as an adjacency
		// allgather (the goldens pin its cost): the round and its bytes
		// are booked, and no list moves. The check itself is the lookup
		// below, the same at every size.
		_, _, tmax, last := c.enterColl(nil)
		c.exitColl(tmax, last, int64(8*len(neighbors)))
	} else {
		// Larger worlds once verified with a zero-latency handshake per
		// neighbor. Both ends leave joinTopo at the same synchronized
		// clock, so its waits were empty; its jitter draws are kept so
		// every later perturbed latency stays where it was.
		for range neighbors {
			c.perturbLatency(0)
		}
	}
	t.at = make([]int32, len(neighbors))
	for i, p := range t.peers {
		j := p.NeighborIndex(c.rank)
		if j < 0 {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: asymmetric topology: rank %d lists %d but not vice versa", c.rank, t.neighbors[i]))
		}
		t.at[i] = int32(j)
	}
	return t
}

// joinTopo is the creation round, charged as the id broadcast every
// communicator creation pays: each member deposits its handle, and
// picks up its neighbors' handles before its next collective can reuse
// the slots. A neighbor's list is fixed before its deposit, so it can be
// read for the topology's life.
func (c *Comm) joinTopo(t *Topo) []*Topo {
	h, p, tmax, last := c.enterColl(func(h *collHub, p int) {
		h.ensureDeps()
		h.deps[p][c.rank] = t
	})
	peers := make([]*Topo, len(t.neighbors))
	for i, nb := range t.neighbors {
		peers[i] = h.deps[p][nb].(*Topo)
	}
	c.exitColl(tmax, last, 8)
	return peers
}

// topoVerifyDenseLimit is the world size up to which CreateGraphTopo
// charges symmetry verification as a full adjacency allgather. A
// variable so tests can exercise the large-world path at small sizes.
var topoVerifyDenseLimit = 2048

// Degree returns the number of neighbors of this rank.
func (t *Topo) Degree() int { return len(t.neighbors) }

// NeighborIndex returns the buffer position of neighbor rank nb, or -1.
func (t *Topo) NeighborIndex(nb int) int { return slices.Index(t.neighbors, nb) }

// The carrier. Neighborhood chunks travel through no message and no
// mailbox: every call publishes its chunks in a box of the sender's,
// and each neighbor pulls its own entry from there (the one-sided form
// of a fixed sparse schedule: write, raise a flag, let the peer read).
//
// A box is one entry per neighbor of its owner — the chunk's virtual
// arrival and injection stamps, and where its words sit — plus one
// words buffer sized exactly to the call's total. The owner's ring of
// boxes is indexed by call sequence; a box is free again once every
// neighbor has released it (left == 0). A receive half returns views
// into the neighbors' boxes and releases them at the rank's next
// operation on the topology, so views stay valid until then.
//
// Blocking calls need two boxes: a neighbor can publish call s+2 only
// after pulling this rank's s+1, which this rank publishes only after
// releasing s. Split-phase forms keep more calls live (NCLI's
// start(k+1)-before-wait(k) keeps four), so a ring whose next box is
// still held doubles instead of waiting. A rank whose neighbor has not
// published suspends until one named neighbor publishes; the wake is a
// Dekker pair on the puller's waitOn (arrived sets it, then re-checks
// pub; publish stores pub, then loads it) and wakes no one else.

// box is one published call.
type box struct {
	seq   int64        // the call this box carries
	left  atomic.Int32 // neighbors that have not released it
	ents  []chunk      // by the owner's neighbor index
	words []int64
}

// chunk is one neighbor's entry in a box: its stamps, exactly those a
// message would carry, and its words, words[off:off+n].
type chunk struct {
	arrive, sent float64
	off, n       int32
}

func (t *Topo) newBox() *box { return &box{ents: make([]chunk, len(t.neighbors))} }

// claim returns the box call seq publishes into, its words resized to
// words. The ring's box for seq is still held only when the calls in
// flight outnumber the ring, which then doubles: every box keeps its
// call's slot (the ring holds the last len(ring) calls, distinct modulo
// twice that), and the new slots get fresh boxes.
func (t *Topo) claim(seq int64, words int) *box {
	ring := *t.ring.Load()
	b := ring[seq&int64(len(ring)-1)]
	if b.left.Load() != 0 {
		grown := make([]*box, 2*len(ring))
		for _, ob := range ring {
			grown[ob.seq&int64(len(grown)-1)] = ob
		}
		for i := range grown {
			if grown[i] == nil {
				grown[i] = t.newBox()
			}
		}
		t.ring.Store(&grown)
		b = grown[seq&int64(len(grown)-1)]
	}
	b.seq = seq
	if cap(b.words) < words {
		b.words = make([]int64, words)
	}
	b.words = b.words[:words]
	return b
}

// publish makes call seq's box readable and wakes the neighbors
// suspended waiting for it.
func (t *Topo) publish(b *box, seq int64) {
	b.left.Store(int32(len(t.neighbors)))
	t.pub.Store(seq + 1)
	for _, p := range t.peers {
		if p.waitOn.Load() == t && p.waitOn.CompareAndSwap(t, nil) {
			p.c.ps.task.unpark()
		}
	}
}

const nbrAbort = "mpi: neighborhood collective aborted: a peer rank failed"

// pull takes neighbor i's chunk of call seq: it advances the clock to
// the chunk's arrival and returns its words — a view into the neighbor's
// box — and the box, which the caller must release. It reports false,
// with the rank suspended, while the neighbor has not published seq.
func (t *Topo) pull(i int, seq int64) (*box, []int64, bool) {
	if !t.arrived(i, seq) {
		return nil, nil, false
	}
	p := t.peers[i]
	ring := *p.ring.Load()
	b := ring[seq&int64(len(ring)-1)]
	e := b.ents[t.at[i]]
	t.c.waitFor(e.arrive, WaitNbrExchange, t.neighbors[i], e.sent)
	return b, b.words[e.off : e.off+e.n : e.off+e.n], true
}

// arrived reports whether neighbor i has published call seq. Otherwise
// it suspends the rank and reports false, to be woken when the last
// neighbor from i on that has not published seq does so: the receive
// half needs every one of them, neighbors tend to publish in rank order,
// and waiting for the first would wake the rank once per neighbor. A
// wakeup may be spurious (a banked notification), so the caller asks
// again.
func (t *Topo) arrived(i int, seq int64) bool {
	for {
		if t.peers[i].pub.Load() > seq {
			return true
		}
		if t.c.w.hub.poisoned.Load() {
			panic(nbrAbort)
		}
		w := t.peers[i]
		for j := len(t.peers) - 1; j > i; j-- {
			if t.peers[j].pub.Load() <= seq {
				w = t.peers[j]
				break
			}
		}
		t.waitOn.Store(w)
		if w.pub.Load() > seq {
			t.waitOn.Store(nil)
			continue
		}
		if t.c.ps.task.suspend() {
			return false
		}
		t.waitOn.Store(nil)
	}
}

// release gives back the boxes the last receive half held views into.
func (t *Topo) release() {
	for _, b := range t.held {
		b.left.Add(-1)
	}
	t.held = t.held[:0]
}

// The neighborhood all-to-all exists in four forms — the fixed-chunk
// and vector step forms (NeighborAlltoallInt64Step and
// NeighborAlltoallvInt64Step, each with a blocking call that allocates
// recv and loops on it), and the nonblocking and persistent forms of
// one split-phase request (NbrRequest, nbrreq.go) — that differ only in
// when the schedule is paid for, which event they record and, for the
// fixed-chunk form, a copy into its flat receive buffer. What is
// exchanged, and what it costs per neighbor, is the same: post is the
// send half, collect the receive half, and every form is a shell around
// them.

// post is the send half: it releases the views the rank held, takes the
// next call sequence (advancing identically on all members), counts the
// call and charges callCost — AlphaNbrCall for a form that derives its
// schedule per call, AlphaNbrStart for a persistent one that derived it
// at init. Then it puts send[i] in the call's box as neighbor i's chunk,
// charging the per-neighbor cost to the sender's clock and the bytes to
// its ledger, and stamping it as a message injected then with that
// latency would be. It returns the call's sequence and the bytes moved;
// op names the calling form in the length panic.
func (t *Topo) post(op string, callCost float64, send [][]int64) (seq, moved int64) {
	if len(send) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: %s: len(send)=%d, want degree %d", op, len(send), len(t.neighbors)))
	}
	t.release()
	seq = t.seq
	t.seq++
	c := t.c
	c.ps.rs.NbrCollCount++
	c.chargeComm(callCost)
	words := 0
	for _, part := range send {
		words += len(part)
	}
	b := t.claim(seq, words)
	off := 0
	for i, part := range send {
		bytes := int64(8 * len(part))
		latency := c.w.cost.AlphaNbr + c.w.cost.BetaNbr*float64(bytes)
		c.chargeComm(latency)
		c.ps.rs.noteNbrChunk(t.neighbors[i], bytes)
		b.ents[i] = chunk{sent: c.ps.now, arrive: c.ps.now + c.perturbLatency(latency), off: int32(off), n: int32(len(part))}
		copy(b.words[off:], part)
		off += len(part)
		moved += bytes
	}
	t.publish(b, seq)
	return seq, moved
}

// recvInto checks that recv has one entry per neighbor, allocating it
// when nil. op names the calling form in the panic.
func (t *Topo) recvInto(op string, recv [][]int64) [][]int64 {
	if recv == nil {
		return make([][]int64, len(t.neighbors))
	}
	if len(recv) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: %s: len(recv)=%d, want degree %d", op, len(recv), len(t.neighbors)))
	}
	return recv
}

// collect is the vector receive half of the call in t.rx: it takes the
// call's chunk from every neighbor in order into recv. The chunks are
// views into the neighbors' boxes, valid until the rank's next operation
// on the topology. It reports false, suspended, at a neighbor that has
// not published; called again, it resumes there.
func (t *Topo) collect(recv [][]int64) bool {
	if t.rx.next == 0 {
		t.release()
	}
	for ; t.rx.next < len(t.neighbors); t.rx.next++ {
		b, data, ok := t.pull(t.rx.next, t.rx.seq)
		if !ok {
			return false
		}
		t.held = append(t.held, b)
		recv[t.rx.next] = data
		t.rx.got += int64(8 * len(data))
	}
	return true
}

// open records the call whose receive half starts now.
func (t *Topo) open(seq int64, from float64, sent int64) {
	t.rx = nbrRecv{seq: seq, from: from, sent: sent, live: true}
}

// NeighborAlltoallInt64 is MPI_Neighbor_alltoall: each rank sends a
// fixed-size chunk to every neighbor and receives one from each. send
// must hold Degree()*chunk words, laid out in neighbor order; the result
// has the same layout with received chunks. A rank with zero neighbors
// returns immediately — neighborhood collectives synchronize only within
// the neighborhood, never globally.
func (t *Topo) NeighborAlltoallInt64(send []int64, chunk int) []int64 {
	recv := make([]int64, len(t.neighbors)*chunk)
	for !t.NeighborAlltoallInt64Step(send, chunk, recv) {
		t.c.Park()
	}
	return recv
}

// NeighborAlltoallInt64Step is the step form of NeighborAlltoallInt64
// (see Steps), receiving into recv, which must hold Degree()*chunk
// words. Transports reuse one recv across rounds to keep the per-round
// count exchange allocation-free. It is the vector form over
// per-neighbor views: post sends send's chunks, collect receives into
// the topology's scratch, and the chunks are copied into recv.
func (t *Topo) NeighborAlltoallInt64Step(send []int64, chunk int, recv []int64) bool {
	const op = "NeighborAlltoallInt64Step"
	c := t.c
	if !t.rx.live {
		if len(send) != len(t.neighbors)*chunk {
			panic(fmt.Sprintf("mpi: %s: len(send)=%d, want %d*%d", op, len(send), len(t.neighbors), chunk))
		}
		if len(recv) != len(t.neighbors)*chunk {
			panic(fmt.Sprintf("mpi: %s: len(recv)=%d, want %d*%d", op, len(recv), len(t.neighbors), chunk))
		}
		if t.parts == nil {
			t.parts = make([][]int64, len(t.neighbors))
		}
		for i := range t.parts {
			t.parts[i] = send[i*chunk : (i+1)*chunk]
		}
		start := c.ps.now
		seq, moved := t.post(op, c.w.cost.AlphaNbrCall, t.parts)
		t.open(seq, start, moved)
	}
	if !t.collect(t.parts) {
		return false
	}
	for i, data := range t.parts {
		if len(data) != chunk {
			panic(fmt.Sprintf("mpi: %s: rank %d received %d words from %d, want chunk %d", op, c.rank, len(data), t.neighbors[i], chunk))
		}
		copy(recv[i*chunk:], data)
	}
	t.rx.live = false
	c.event(EvNbrColl, -1, int(t.rx.seq), t.rx.sent, t.rx.from)
	return true
}

// NeighborAlltoallvInt64 is MPI_Neighbor_alltoallv: send[i] is delivered
// to neighbor i; the result's element i is what neighbor i sent to this
// rank. Callers typically learn incoming sizes beforehand with a
// NeighborAlltoallInt64 count exchange, as the paper's NCL implementation
// does; this API nevertheless sizes receives from the actual chunks and
// the caller may cross-check. The entries are read-only views into the
// neighbors' send boxes (see collect), valid until this rank's next
// operation on the topology: nothing is copied.
func (t *Topo) NeighborAlltoallvInt64(send [][]int64) [][]int64 {
	recv := make([][]int64, len(t.neighbors))
	for !t.NeighborAlltoallvInt64Step(send, recv) {
		t.c.Park()
	}
	return recv
}

// NeighborAlltoallvInt64Step is the step form of NeighborAlltoallvInt64
// (see Steps), filling recv, which must have Degree() entries; with a
// recv reused across rounds, a steady-state exchange allocates nothing.
func (t *Topo) NeighborAlltoallvInt64Step(send, recv [][]int64) bool {
	const op = "NeighborAlltoallvInt64Step"
	c := t.c
	if !t.rx.live {
		t.recvInto(op, recv)
		start := c.ps.now
		seq, moved := t.post(op, c.w.cost.AlphaNbrCall, send)
		t.open(seq, start, moved)
	}
	if !t.collect(recv) {
		return false
	}
	t.rx.live = false
	c.event(EvNbrColl, -1, int(t.rx.seq), t.rx.sent, t.rx.from)
	return true
}
