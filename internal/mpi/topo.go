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
	// creation; ring, pub and parked are read by the neighbors.
	peers  []*Topo // neighbor i's handle on this topology
	at     []int32 // this rank's position in neighbor i's list: its entry in their boxes
	ring   atomic.Pointer[[]*box]
	pub    atomic.Int64 // calls published: call s is readable once pub > s
	parked atomic.Bool  // the owner is parked until a neighbor publishes
	held   []*box       // neighbors' boxes the last receive half returned views into
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
	t := &Topo{c: c, neighbors: slices.Clone(neighbors)}
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
		h.ensureTdeps()
		h.tdeps[p][c.rank] = t
	})
	peers := make([]*Topo, len(t.neighbors))
	for i, nb := range t.neighbors {
		peers[i] = h.tdeps[p][nb]
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
// published parks; the wake is a Dekker pair on the puller's parked flag
// (pull sets it, then re-checks pub; publish stores pub, then loads it).

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

// publish makes call seq's box readable and wakes the neighbors parked
// waiting for it.
func (t *Topo) publish(b *box, seq int64) {
	b.left.Store(int32(len(t.neighbors)))
	t.pub.Store(seq + 1)
	for _, p := range t.peers {
		if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
			p.c.ps.task.unpark()
		}
	}
}

const nbrAbort = "mpi: neighborhood collective aborted: a peer rank failed"

// pull waits for neighbor i's chunk of call seq, advances the clock to
// its arrival, and returns its words — a view into the neighbor's box —
// and the box, which the caller must release.
func (t *Topo) pull(i int, seq int64) (*box, []int64) {
	p := t.peers[i]
	if p.pub.Load() <= seq {
		t.await(p, seq)
	}
	ring := *p.ring.Load()
	b := ring[seq&int64(len(ring)-1)]
	e := b.ents[t.at[i]]
	t.c.waitFor(e.arrive, WaitNbrExchange, t.neighbors[i], e.sent)
	return b, b.words[e.off : e.off+e.n : e.off+e.n]
}

// await parks until p has published call seq. A wakeup may be spurious
// (a banked notification, another neighbor's publication), hence the
// re-check after park.
func (t *Topo) await(p *Topo, seq int64) {
	for {
		if t.c.w.hub.poisoned.Load() {
			panic(nbrAbort)
		}
		t.parked.Store(true)
		if p.pub.Load() > seq {
			break
		}
		t.c.ps.task.park()
		if p.pub.Load() > seq {
			break
		}
	}
	t.parked.Store(false)
}

// release gives back the boxes the last receive half held views into.
func (t *Topo) release() {
	for _, b := range t.held {
		b.left.Add(-1)
	}
	t.held = t.held[:0]
}

// The neighborhood all-to-all-v exists in four forms — flat and vector
// blocking calls, the nonblocking request (nbrreq.go) and the persistent
// schedule (persist.go) — that differ only in when the schedule is paid
// for and which event they record. What is exchanged, and what it costs
// per neighbor, is the same: begin + sendChunk per neighbor + publish is
// the send half, collect the receive half, and every form is a shell
// around them.

// begin opens one exchange: it releases the views the rank held, takes
// the next call sequence (advancing identically on all members), counts
// the call and charges callCost — AlphaNbrCall for a form that derives
// its schedule per call, AlphaNbrStart for a persistent one that derived
// it at init.
func (t *Topo) begin(callCost float64) int64 {
	t.release()
	seq := t.seq
	t.seq++
	t.c.ps.rs.NbrCollCount++
	t.c.chargeComm(callCost)
	return seq
}

// sendChunk puts part into b at off as neighbor i's chunk, charging the
// per-neighbor cost to the sender's clock and the bytes to its ledger,
// and stamping it as a message injected now with that latency would be;
// returns the bytes moved.
func (t *Topo) sendChunk(b *box, i, off int, part []int64) int64 {
	c := t.c
	bytes := int64(8 * len(part))
	latency := c.w.cost.AlphaNbr + c.w.cost.BetaNbr*float64(bytes)
	c.chargeComm(latency)
	c.ps.rs.noteNbrChunk(t.neighbors[i], bytes)
	b.ents[i] = chunk{sent: c.ps.now, arrive: c.ps.now + c.perturbLatency(latency), off: int32(off), n: int32(len(part))}
	copy(b.words[off:], part)
	return bytes
}

// post is the vector send half: send[i] goes to neighbor i. op names the
// calling form in the length panic.
func (t *Topo) post(op string, callCost float64, send [][]int64) (seq, moved int64) {
	if len(send) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: %s: len(send)=%d, want degree %d", op, len(send), len(t.neighbors)))
	}
	seq = t.begin(callCost)
	words := 0
	for _, part := range send {
		words += len(part)
	}
	b := t.claim(seq, words)
	off := 0
	for i, part := range send {
		moved += t.sendChunk(b, i, off, part)
		off += len(part)
	}
	t.publish(b, seq)
	return seq, moved
}

// collect is the vector receive half: it waits for call seq's chunk from
// every neighbor in order and sets recv[i] to it (recv is allocated when
// nil). The chunks are views into the neighbors' boxes, valid until the
// rank's next operation on the topology; returns recv and the bytes
// received.
func (t *Topo) collect(op string, seq int64, recv [][]int64) ([][]int64, int64) {
	if recv == nil {
		recv = make([][]int64, len(t.neighbors))
	} else if len(recv) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: %s: len(recv)=%d, want degree %d", op, len(recv), len(t.neighbors)))
	}
	t.release()
	var got int64
	for i := range t.neighbors {
		b, data := t.pull(i, seq)
		t.held = append(t.held, b)
		recv[i] = data
		got += int64(8 * len(data))
	}
	return recv, got
}

// start and wait are the split-phase shells shared by the nonblocking
// request and the persistent schedule: the send half plus EvNbrStart,
// and the receive half plus EvNbrWait.
func (t *Topo) start(op string, callCost float64, send [][]int64) int64 {
	from := t.c.ps.now
	seq, sent := t.post(op, callCost, send)
	t.c.event(EvNbrStart, -1, int(seq), sent, from)
	return seq
}

func (t *Topo) wait(op string, seq int64, recv [][]int64) [][]int64 {
	from := t.c.ps.now
	recv, got := t.collect(op, seq, recv)
	t.c.event(EvNbrWait, -1, int(seq), got, from)
	return recv
}

// NeighborAlltoallInt64 is MPI_Neighbor_alltoall: each rank sends a
// fixed-size chunk to every neighbor and receives one from each. send
// must hold Degree()*chunk words, laid out in neighbor order; the result
// has the same layout with received chunks. A rank with zero neighbors
// returns immediately — neighborhood collectives synchronize only within
// the neighborhood, never globally.
func (t *Topo) NeighborAlltoallInt64(send []int64, chunk int) []int64 {
	return t.NeighborAlltoallInt64Into(send, chunk, nil)
}

// NeighborAlltoallInt64Into is NeighborAlltoallInt64 receiving into a
// caller-supplied buffer of Degree()*chunk words (allocated when nil),
// which it returns. Transports reuse one buffer across rounds to keep the
// per-round count exchange allocation-free.
func (t *Topo) NeighborAlltoallInt64Into(send []int64, chunk int, recv []int64) []int64 {
	if len(send) != len(t.neighbors)*chunk {
		panic(fmt.Sprintf("mpi: NeighborAlltoallInt64: len(send)=%d, want %d*%d", len(send), len(t.neighbors), chunk))
	}
	if recv == nil {
		recv = make([]int64, len(t.neighbors)*chunk)
	} else if len(recv) != len(t.neighbors)*chunk {
		panic(fmt.Sprintf("mpi: NeighborAlltoallInt64Into: len(recv)=%d, want %d*%d", len(recv), len(t.neighbors), chunk))
	}
	c := t.c
	start := c.ps.now
	seq := t.begin(c.w.cost.AlphaNbrCall)
	b := t.claim(seq, len(send))
	var moved int64
	for i := range t.neighbors {
		moved += t.sendChunk(b, i, i*chunk, send[i*chunk:(i+1)*chunk])
	}
	t.publish(b, seq)
	// Fixed-size chunks are copied into the flat buffer, so the boxes go
	// back at once.
	for i, nb := range t.neighbors {
		pb, data := t.pull(i, seq)
		if len(data) != chunk {
			panic(fmt.Sprintf("mpi: NeighborAlltoallInt64: rank %d received %d words from %d, want chunk %d", c.rank, len(data), nb, chunk))
		}
		copy(recv[i*chunk:], data)
		pb.left.Add(-1)
	}
	c.event(EvNbrColl, -1, int(seq), moved, start)
	return recv
}

// NeighborAlltoallvInt64 is MPI_Neighbor_alltoallv: send[i] is delivered
// to neighbor i; the result's element i is what neighbor i sent to this
// rank. Callers typically learn incoming sizes beforehand with a
// NeighborAlltoallInt64 count exchange, as the paper's NCL implementation
// does; this API nevertheless sizes receives from the actual chunks and
// the caller may cross-check.
func (t *Topo) NeighborAlltoallvInt64(send [][]int64) [][]int64 {
	return t.NeighborAlltoallvInt64Into(send, nil)
}

// NeighborAlltoallvInt64Into is NeighborAlltoallvInt64 filling a
// caller-supplied slice of Degree() entries (allocated when nil). The
// entries are read-only views into the neighbors' send boxes (see
// collect), valid until this rank's next operation on the topology:
// nothing is copied, and a steady-state exchange allocates nothing.
func (t *Topo) NeighborAlltoallvInt64Into(send, recv [][]int64) [][]int64 {
	const op = "NeighborAlltoallvInt64Into"
	c := t.c
	start := c.ps.now
	seq, moved := t.post(op, c.w.cost.AlphaNbrCall, send)
	recv, _ = t.collect(op, seq, recv)
	c.event(EvNbrColl, -1, int(seq), moved, start)
	return recv
}
