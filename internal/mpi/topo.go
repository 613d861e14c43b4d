package mpi

import "fmt"

// Topo is a distributed graph process topology, the analogue of a
// communicator created with MPI_Dist_graph_create_adjacent. Each rank
// declares the set of ranks it communicates with; neighborhood collectives
// then involve only those ranks. The topology must be symmetric: if j is
// a neighbor of i, then i must be a neighbor of j (CreateGraphTopo
// verifies this and panics otherwise, since an asymmetric topology would
// deadlock neighborhood collectives).
type Topo struct {
	c         *Comm
	id        int64
	neighbors []int
	index     map[int]int // neighbor rank -> position in neighbors
	seq       int64       // per-call sequence, advances identically on all members
}

// CreateGraphTopo collectively creates a distributed graph topology from
// each rank's adjacency list. The call is collective over the world (as
// MPI_Dist_graph_create_adjacent is over its communicator); ranks with no
// neighbors pass an empty list. Neighbor order is preserved: buffers in
// neighborhood collectives are laid out in this order, exactly as in MPI.
func (c *Comm) CreateGraphTopo(neighbors []int) *Topo {
	idx := make(map[int]int, len(neighbors))
	for i, nb := range neighbors {
		c.checkRank(nb, "CreateGraphTopo")
		if nb == c.rank {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: rank %d listed itself as a neighbor", c.rank))
		}
		if _, dup := idx[nb]; dup {
			panic(fmt.Sprintf("mpi: CreateGraphTopo: rank %d listed neighbor %d twice", c.rank, nb))
		}
		idx[nb] = i
	}

	// Allocate a world-unique topology id, then verify symmetry.
	id := c.newID()

	if c.w.n <= topoVerifyDenseLimit {
		// Small worlds: gather every adjacency list and cross-check
		// directly, yielding a precise panic naming the asymmetric pair.
		mine := make([]int64, len(neighbors))
		for i, nb := range neighbors {
			mine[i] = int64(nb)
		}
		all := c.AllgatherInt64(mine)
		for _, nb := range neighbors {
			found := false
			for _, v := range all[nb] {
				if int(v) == c.rank {
					found = true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("mpi: CreateGraphTopo: asymmetric topology: rank %d lists %d but not vice versa", c.rank, nb))
			}
		}
	} else {
		// Large worlds: the allgather materializes every adjacency list on
		// every rank — O(P * E_p) memory, which at 16K+ ranks dwarfs the
		// topology itself. Verify symmetry pairwise instead: each rank
		// sends a zero-cost handshake to every listed neighbor on a
		// reserved internal tag (below this topology's itag sequence) and
		// then receives one from each. Total traffic is O(E_p). An
		// asymmetric listing means some handshake never arrives; that
		// surfaces as a deadline-watchdog deadlock naming the blocked
		// ranks rather than a pinpointed panic — the price of scalability.
		hs := 1 + id<<32 + topoHandshakeSeq
		var one [1]int64
		one[0] = int64(c.rank)
		for _, nb := range neighbors {
			c.internalSend(nb, hs, one[:], 0)
		}
		for _, nb := range neighbors {
			c.internalRecvMsg(nb, hs).release()
		}
	}

	return &Topo{
		c:         c,
		id:        id,
		neighbors: append([]int(nil), neighbors...),
		index:     idx,
	}
}

// Degree returns the number of neighbors of this rank.
func (t *Topo) Degree() int { return len(t.neighbors) }

// NeighborIndex returns the buffer position of neighbor rank nb, or -1.
func (t *Topo) NeighborIndex(nb int) int {
	if i, ok := t.index[nb]; ok {
		return i
	}
	return -1
}

// itag derives the internal message tag for call number seq on this topo.
func (t *Topo) itag(seq int64) int64 { return 1 + t.id<<32 + seq }

// topoHandshakeSeq is the reserved pseudo-sequence for the symmetry
// handshake: itag(-1) sits below every real call's tag for this topology
// id and above the previous id's space, so handshakes can never match
// collective traffic.
const topoHandshakeSeq = -1

// topoVerifyDenseLimit is the world size up to which CreateGraphTopo
// verifies symmetry via a full adjacency allgather (precise diagnostics,
// O(P*E_p) memory). Larger worlds use the pairwise handshake. A variable
// so tests can exercise the handshake path at small sizes.
var topoVerifyDenseLimit = 2048

// The neighborhood all-to-all-v exists in four forms — flat and vector
// blocking calls, the nonblocking request (nbrreq.go) and the persistent
// schedule (persist.go) — that differ only in when the schedule is paid
// for and which event they record. What is exchanged, and what it costs
// per neighbor, is the same: begin + sendChunk per neighbor is the send
// half, collect the receive half, and every form is a shell around them.

// begin opens one exchange: it takes the next call sequence (advancing
// identically on all members), counts the call and charges callCost —
// AlphaNbrCall for a form that derives its schedule per call,
// AlphaNbrStart for a persistent one that derived it at init.
func (t *Topo) begin(callCost float64) int64 {
	seq := t.seq
	t.seq++
	t.c.ps.rs.NbrCollCount++
	t.c.chargeComm(callCost)
	return seq
}

// sendChunk injects part toward neighbor i for call seq, charging the
// per-neighbor cost to the sender's clock and the bytes to its ledger;
// returns the bytes moved.
func (t *Topo) sendChunk(i int, seq int64, part []int64) int64 {
	c, nb := t.c, t.neighbors[i]
	bytes := int64(8 * len(part))
	latency := c.w.cost.AlphaNbr + c.w.cost.BetaNbr*float64(bytes)
	c.chargeComm(latency)
	c.ps.rs.noteNbrChunk(nb, bytes)
	c.internalSend(nb, t.itag(seq), part, latency)
	return bytes
}

// post is the vector send half: send[i] goes to neighbor i. op names the
// calling form in the length panic.
func (t *Topo) post(op string, callCost float64, send [][]int64) (seq, moved int64) {
	if len(send) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: %s: len(send)=%d, want degree %d", op, len(send), len(t.neighbors)))
	}
	seq = t.begin(callCost)
	for i := range t.neighbors {
		moved += t.sendChunk(i, seq, send[i])
	}
	return seq, moved
}

// collect is the vector receive half: it blocks for call seq's chunk
// from every neighbor in order. Each recv[i] is reset to length zero and
// appended to, so its capacity is reused (recv itself is allocated when
// nil); returns the possibly-regrown recv and the bytes received.
func (t *Topo) collect(op string, seq int64, recv [][]int64) ([][]int64, int64) {
	if recv == nil {
		recv = make([][]int64, len(t.neighbors))
	} else if len(recv) != len(t.neighbors) {
		panic(fmt.Sprintf("mpi: %s: len(recv)=%d, want degree %d", op, len(recv), len(t.neighbors)))
	}
	var got int64
	for i, nb := range t.neighbors {
		recv[i] = t.c.internalRecvAppend(nb, t.itag(seq), recv[i])
		got += int64(8 * len(recv[i]))
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
	var moved int64
	for i := range t.neighbors {
		moved += t.sendChunk(i, seq, send[i*chunk:(i+1)*chunk])
	}
	// Fixed-size chunks land in the flat buffer directly; the vector
	// receive half would need a per-neighbor view slice per call.
	for i, nb := range t.neighbors {
		m := c.internalRecvMsg(nb, t.itag(seq))
		if len(m.data) != chunk {
			panic(fmt.Sprintf("mpi: NeighborAlltoallInt64: rank %d received %d words from %d, want chunk %d", c.rank, len(m.data), nb, chunk))
		}
		copy(recv[i*chunk:(i+1)*chunk], m.data)
		m.release()
	}
	c.event(EvNbrColl, -1, int(seq), moved, start)
	return recv
}

// NeighborAlltoallvInt64 is MPI_Neighbor_alltoallv: send[i] is delivered
// to neighbor i; the result's element i is what neighbor i sent to this
// rank. Callers typically learn incoming sizes beforehand with a
// NeighborAlltoallInt64 count exchange, as the paper's NCL implementation
// does; this API nevertheless sizes receive buffers from the actual
// messages and the caller may cross-check.
func (t *Topo) NeighborAlltoallvInt64(send [][]int64) [][]int64 {
	return t.NeighborAlltoallvInt64Into(send, nil)
}

// NeighborAlltoallvInt64Into is NeighborAlltoallvInt64 receiving into a
// caller-supplied slice of per-neighbor buffers (see collect). Transports
// keep one receive set across rounds so a steady-state exchange
// allocates nothing.
func (t *Topo) NeighborAlltoallvInt64Into(send, recv [][]int64) [][]int64 {
	const op = "NeighborAlltoallvInt64Into"
	c := t.c
	start := c.ps.now
	seq, moved := t.post(op, c.w.cost.AlphaNbrCall, send)
	recv, _ = t.collect(op, seq, recv)
	c.event(EvNbrColl, -1, int(seq), moved, start)
	return recv
}
