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
// neighborhoods). A variable so the density-sweep experiment and tests
// can probe both sides of the crossover.
var nclcCombineFactor = 1.5

// nclcPhase is one direction of the combining schedule: in phase j this
// rank forwards one combined bundle to (rank + 2^j) mod p and receives
// one from (rank - 2^j) mod p, over a dedicated 1- or 2-neighbor
// topology driven by a persistent schedule.
type nclcPhase struct {
	step   int // 2^j
	fwdIdx int // position of the forward peer in the phase topo
	pn     *mpi.PersistentNbr
	sendv  [][]int64 // per-peer send views; only fwdIdx ever carries data
	recv   [][]int64 // per-peer received chunks: views valid until the phase's next round
	buf    []int64   // outgoing bundle: wire records whose lowest unresolved distance bit is j
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
// records into their next direction's bundle. Each rank therefore posts
// O(ceil(log2 p)) transfers per round regardless of neighborhood degree,
// and every phase reuses a persistent exchange schedule
// (Topo.NeighborAlltoallvInit) computed once at construction — the
// rounds are isomorphic, so the schedule never changes.
//
// When the neighborhood is sparse (global average degree at or below
// nclcCombineFactor * ceil(log2 p)), combining cannot pay for the extra
// hops and NewNCLC returns the direct blocking exchange (*NCL) instead.
// The mode is decided once, collectively, from the global average degree
// — per-rank decisions would produce incompatible schedules.
type NCLC struct {
	stage

	p          int
	phases     []nclcPhase
	home       []int64 // records destined here, delivered at Exchange end
	fwdRecords int64
	fwdBytes   int64
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

// ForwardedBytes returns the cumulative wire bytes this rank has relayed
// on behalf of other ranks (received in a bundle and re-sent toward the
// destination). Endpoint traffic is in VolumeByNeighbor, accounted toward
// the record's final destination at Send time uniformly with every other
// backend; the sum of both is the rank's true injection load.
func (t *NCLC) ForwardedBytes() int64 { return t.fwdBytes }

// ForwardedRecords returns the cumulative count of relayed records.
func (t *NCLC) ForwardedRecords() int64 { return t.fwdRecords }

// dist returns the ring distance from this rank to dst in [1, p).
func (t *NCLC) dist(dst int) int {
	d := dst - t.c.Rank()
	if d < 0 {
		d += t.p
	}
	return d
}

// Exchange implements Round: route staged records into their first
// direction's bundle, then run the k phases in order — each a persistent
// Start/WaitInto with the forward peer — re-combining received records
// that are not yet home into their next direction. Records for this rank
// are delivered after all phases complete, so delivery order is a pure
// function of the staged sends (deterministic regardless of schedule
// perturbation, like the blocking direct exchange).
//
// Correctness of the in-round forwarding: a record staged with ring
// distance d first travels in phase j0 = lowest set bit of d; arriving
// there, its remaining distance d - 2^j0 has only bits above j0 set, so
// its next phase j1 > j0 has not run yet this round. Induction gives
// every record home within the round's k phases.
func (t *NCLC) Exchange(h Handler) int {
	usage := t.staged()
	// Distribute staged records (3 words) into wire bundles (4 words,
	// destination prepended) keyed by the distance's lowest set bit.
	for i, buf := range t.out {
		if len(buf) == 0 {
			continue
		}
		dst := t.l.NeighborRanks[i]
		ph := &t.phases[bits.TrailingZeros(uint(t.dist(dst)))]
		for k := 0; k+recordWords <= len(buf); k += recordWords {
			ph.buf = append(ph.buf, int64(dst), buf[k], buf[k+1], buf[k+2])
		}
	}
	t.reset()
	home := t.home[:0]
	for j := range t.phases {
		ph := &t.phases[j]
		ph.sendv[ph.fwdIdx] = ph.buf
		usage += int64(len(ph.buf))
		ph.pn.Start(ph.sendv)
		// Start copied the payload into the runtime's send box; the bundle
		// buffer is immediately reusable for records this phase forwards
		// onward.
		ph.buf = ph.buf[:0]
		ph.recv = ph.pn.WaitInto(ph.recv)
		for _, data := range ph.recv {
			usage += int64(len(data))
			for k := 0; k+nclcWireWords <= len(data); k += nclcWireWords {
				dst := int(data[k])
				if dst == t.c.Rank() {
					home = append(home, data[k+1], data[k+2], data[k+3])
					continue
				}
				// Split and re-combine: this rank is an intermediate hop.
				// The next set bit of the remaining distance is > j, so
				// the target bundle has not been sent this round.
				t.c.Pack(1)
				t.fwdRecords++
				t.fwdBytes += nclcWireWords * 8
				t.phases[bits.TrailingZeros(uint(t.dist(dst)))].buf = append(
					t.phases[bits.TrailingZeros(uint(t.dist(dst)))].buf, data[k:k+nclcWireWords]...)
			}
		}
	}
	t.home = home
	t.account(usage + int64(len(home)))
	// Deliver after the staging buffers were reset: handlers queue
	// next-round records into the same buffers.
	return deliver(t.c, home, h)
}

// Finish implements Round: every phase completes within its Exchange,
// so there is no in-flight state.
func (t *NCLC) Finish() {}
