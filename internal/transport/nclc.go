package transport

import (
	"math/bits"

	"repro/internal/distgraph"
	"repro/internal/mpi"
)

// --- NCLC: message-combining neighborhood collectives -----------------------

// nclcWireWords is the in-transit record size for combined bundles:
// {dst, ctx, x, y}. The destination rank rides with the payload because
// intermediate ranks must route it; VolumeByNeighbor still accounts the
// uniform 3-word logical record toward the final destination, keeping
// per-model volume ledgers comparable (the extra routing word is wire
// framing, like the P2P path's tag or the batched paths' count headers).
const nclcWireWords = 4

// nclcCombineFactor scales the combining threshold: NCLC routes through
// the virtual ring-power schedule only when the global average
// process-graph degree exceeds nclcCombineFactor * ceil(log2 p) —
// roughly where O(log p) combined transfers per round undercut one
// transfer per neighbor, after paying the forwarding beta and repack
// overheads. Below it, NCLC falls back to the direct blocking exchange
// (which the paper shows is already the right shape for sparse
// neighborhoods).
const nclcCombineFactor = 1.5

// nclcPhase is one direction of the combining schedule: in phase j this
// rank forwards one combined bundle to (rank + 2^j) mod p and receives
// one from (rank - 2^j) mod p, over a dedicated 1- or 2-neighbor
// topology driven by a persistent schedule.
type nclcPhase struct {
	step   int // 2^j
	fwdIdx int // position of the forward peer in the phase topo
	pn     *mpi.NbrRequest
	sendv  [][]int64 // per-peer send views; only fwdIdx ever carries data
	// recv holds the per-peer received chunks: views into the peers' send
	// boxes, valid until this rank's next Start on the phase, so a round's
	// later gathers and its delivery read them in place.
	recv [][]int64
}

// NCLC is the message-combining neighborhood-collective backend (Träff
// et al., "Message-Combining Algorithms for Isomorphic, Sparse
// Collective Communication"): instead of posting one transfer per
// process-graph neighbor per round (NCL, which degrades as the process
// graph densifies — the paper's SBP and social-network caveat), records
// are routed along a virtual ring-power embedding of the whole world.
// Phase j moves one combined bundle distance 2^j; a record for a rank at
// ring distance t travels the set bits of t in increasing order, with
// intermediate ranks splitting received bundles and re-combining the
// records into their next direction's bundle. A record is copied once
// per hop, into the runtime's send box: a phase's bundle is gathered at
// its Start into one scratch buffer (Start copies it out), and records
// for this rank are delivered straight from the received views. Each
// rank therefore posts O(ceil(log2 p)) transfers per round regardless of
// neighborhood degree, and every phase reuses a persistent exchange
// schedule (Topo.NeighborAlltoallvInit) computed once at construction —
// the rounds are isomorphic, so the schedule never changes.
//
// When the neighborhood is sparse (global average degree at or below
// nclcCombineFactor * ceil(log2 p)), combining cannot pay for the extra
// hops and NewNCLC returns the direct blocking exchange (*NCL) instead.
// The mode is decided once, collectively, from the global average degree
// — per-rank decisions would produce incompatible schedules.
type NCLC struct {
	stage

	p       int
	phases  []nclcPhase
	scratch []int64 // the bundle being started, reused by every phase and round

	// The round in progress, kept across the step form's suspensions:
	// its current phase and whether that phase has started, the round's
	// buffer words so far, and the records for this rank received so far.
	busy, started bool
	phase         int
	usage         int64
	home          int64
}

// NewNCLC collectively constructs the model's backend: an allreduce
// decides the mode, which is the type returned — a plain *NCL on a sparse
// process graph, otherwise an *NCLC with one 1- or 2-neighbor topology
// plus persistent schedule per ring-power direction. Buffers hold
// maxPerArc records per cross arc per direction either way.
func NewNCLC(c *mpi.Comm, topo *mpi.Topo, l *distgraph.Local, maxPerArc int64) Round {
	p := c.Size()
	k := log2Ceil(p)
	// Mode is a global property: every rank must either combine (and
	// participate in all k phase topologies as a potential intermediate,
	// even with zero neighbors of its own) or none must.
	sumDeg := c.AllreduceScalarInt64(mpi.OpSum, int64(len(l.NeighborRanks)))
	if k == 0 || float64(sumDeg)/float64(p) <= nclcCombineFactor*float64(k) {
		return NewNCL(c, topo, l, maxPerArc)
	}
	t := &NCLC{stage: newStage(ModelNCLC, c, l, maxPerArc), p: p, phases: make([]nclcPhase, k)}
	for j := 0; j < k; j++ {
		step := 1 << j
		fwd := (c.Rank() + step) % t.p
		bwd := (c.Rank() - step + t.p) % t.p
		peers := []int{fwd}
		if bwd != fwd { // 2*step == p collapses both directions onto one peer
			peers = append(peers, bwd)
		}
		pt := c.CreateGraphTopo(peers)
		t.phases[j] = nclcPhase{
			step:   step,
			fwdIdx: pt.NeighborIndex(fwd),
			pn:     pt.NeighborAlltoallvInit(),
			sendv:  make([][]int64, len(peers)),
			recv:   make([][]int64, len(peers)),
		}
	}
	return t
}

// log2Ceil returns ceil(log2(n)) for n >= 1 — the phase count of the
// combining schedule (every ring distance 1..n-1 is a sum of distinct
// powers 2^j with j < ceil(log2 n)).
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// dist returns the ring distance from this rank to dst in [1, p).
func (t *NCLC) dist(dst int) int {
	d := dst - t.c.Rank()
	if d < 0 {
		d += t.p
	}
	return d
}

// hop returns the phase that next carries a record for dst != rank: the
// lowest set bit of the remaining ring distance.
func (t *NCLC) hop(dst int) int { return bits.TrailingZeros(uint(t.dist(dst))) }

// Exchange implements Round: run the k phases in order — each a
// persistent Start/WaitInto with the forward peer, its bundle gathered
// from the staged records and the earlier phases' received records whose
// next hop it is. Records for this rank are delivered after all phases
// complete, so delivery order is a pure function of the staged sends
// (deterministic regardless of schedule perturbation, like the blocking
// direct exchange).
//
// Correctness of the in-round forwarding: a record staged with ring
// distance d first travels in phase j0 = lowest set bit of d; arriving
// there, its remaining distance d - 2^j0 has only bits above j0 set, so
// its next phase j1 > j0 has not run yet this round. Induction gives
// every record home within the round's k phases.
func (t *NCLC) Exchange(h Handler) int { return exchange(t.c, t, h) }

// ExchangeStep implements Round.
func (t *NCLC) ExchangeStep(h Handler) (int, bool) {
	if !t.busy {
		t.usage = t.staged()
		t.home = 0
		t.busy, t.phase = true, 0
	}
	me := t.c.Rank()
	for ; t.phase < len(t.phases); t.phase++ {
		ph := &t.phases[t.phase]
		if !t.started {
			ph.sendv[ph.fwdIdx] = t.gather(t.phase)
			t.usage += int64(len(t.scratch))
			ph.pn.Start(ph.sendv)
			t.started = true
		}
		if !ph.pn.WaitStep(ph.recv) {
			return 0, false
		}
		t.started = false
		for _, data := range ph.recv {
			t.usage += int64(len(data))
			for k := 0; k+nclcWireWords <= len(data); k += nclcWireWords {
				if int(data[k]) == me {
					t.home++
					continue
				}
				// Split and re-combine: this rank is an intermediate hop,
				// and a later phase's gather picks the record up from
				// this view.
				t.c.Pack(1)
			}
		}
	}
	t.busy = false
	// Every gather has read the staging buffers; reset them before
	// delivery, because handlers queue next-round records into them.
	t.reset()
	t.account(t.usage + recordWords*t.home)
	for j := range t.phases {
		for _, data := range t.phases[j].recv {
			for k := 0; k+nclcWireWords <= len(data); k += nclcWireWords {
				if int(data[k]) == me {
					t.c.Unpack(1)
					h(data[k+1], data[k+2], data[k+3])
				}
			}
		}
	}
	return int(t.home), true
}

// gather builds phase j's bundle in t.scratch and returns it: the staged
// records whose first hop is j, in neighbor order with the destination
// prepended (3 words become 4), then the records received in phases
// 0..j-1 whose next hop is j, in phase, view and record order.
func (t *NCLC) gather(j int) []int64 {
	b := t.scratch[:0]
	for i, buf := range t.out {
		if len(buf) == 0 {
			continue
		}
		dst := t.l.NeighborRanks[i]
		if t.hop(dst) != j {
			continue
		}
		for k := 0; k+recordWords <= len(buf); k += recordWords {
			b = append(b, int64(dst), buf[k], buf[k+1], buf[k+2])
		}
	}
	me := t.c.Rank()
	for i := 0; i < j; i++ {
		for _, data := range t.phases[i].recv {
			for k := 0; k+nclcWireWords <= len(data); k += nclcWireWords {
				if dst := int(data[k]); dst != me && t.hop(dst) == j {
					b = append(b, data[k:k+nclcWireWords]...)
				}
			}
		}
	}
	t.scratch = b
	return b
}

// Finish implements Round: every phase completes within its Exchange,
// so there is no in-flight state.
func (t *NCLC) Finish() {}
