package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ReduceOp selects the combining operation for reductions.
type ReduceOp int

// Supported reduction operations.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
	OpProd
	OpLand // logical and of nonzero-ness
	OpLor  // logical or of nonzero-ness
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpProd:
		return "prod"
	case OpLand:
		return "land"
	case OpLor:
		return "lor"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

func (op ReduceOp) foldInt64(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpProd:
		return a * b
	case OpLand:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case OpLor:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}
	panic("mpi: unknown ReduceOp")
}

const collAbort = "mpi: collective aborted: a peer rank failed"

// hubShardShift sets the collective hub's shard width: ranks are mapped
// to shards in contiguous blocks of 1<<hubShardShift, so a barrier
// arrival touches one shard-local lock and the per-rank virtual clocks
// (and int64 reduction contributions) are folded into one running
// accumulator per shard. Only the single last-to-arrive rank walks all
// shards.
const hubShardShift = 6

// foldKind says what, besides its clock, a rank deposits into its shard
// on arrival.
type foldKind uint8

const (
	foldNone   foldKind = iota
	foldScalar          // one int64, folded with the round's ReduceOp
	foldVec             // an []int64, folded element-wise
)

// collShard is one block of ranks' arrival state within a collHub.
type collShard struct {
	mu     sync.Mutex
	count  int     // arrivals this round
	size   int     // ranks mapped to this shard
	maxNow float64 // running max of deposited clocks this round
	// maxRank is the comm rank that deposited maxNow (-1 before the
	// first arrival). Ties go to the lowest rank so the fold is
	// independent of arrival order — the argmax must be deterministic
	// because it is recorded in wait events.
	maxRank int32
	// acc/accN fold scalar reduction deposits this round; vacc/vaccN
	// fold vector deposits element-wise (vacc's capacity is retained, so
	// steady-state reductions never allocate). Every supported int64 op
	// is associative and commutative (sum/prod wrap mod 2^64), so
	// folding in arrival order within the shard and then across shards
	// in shard order is bit-identical to the old rank-ordered fold —
	// which is what lets a collective advance all resident clocks with
	// one shard-local deposit instead of every rank reading every slot.
	acc   int64
	accN  int
	vacc  []int64
	vaccN int
	// waiters collects every arrived task this round (capacity size, so
	// steady state never allocates); the releaser unparks them.
	waiters []*task
	_       [8]byte // round up to a cache line
}

// collHub is the rendezvous point for a communicator's collectives. All
// member ranks must invoke the same sequence of collective operations
// (the standard MPI contract); each operation is one deposit barrier
// followed by a race-free read phase — there is no release barrier.
//
// The barrier is sharded: a rank folds its virtual clock (and, for the
// int64 reductions, its contribution) into its own shard under that
// shard's lock — never a hub-global one — and parks. The shard's last
// arrival decrements pendingShards; whoever drives it to zero becomes
// the releaser: it folds the per-shard clock maxima and reduction
// partials into the round outputs, resets every shard for the next
// round, advances gen and unparks all collected waiters in one batch.
// Waiters observe the new gen (an acquire load ordered after the
// releaser's output writes and shard resets) and read the round outputs
// and deposit slots race-free.
//
// Removing the release barrier halves the synchronization rounds per
// collective; what it used to protect — reuse of the deposit slots by
// the next collective while a slow reader still reads the previous
// round's — is instead handled by parity double-buffering: round r uses
// slot set r&1. Round r+2 reuses round r's set, and by then every rank
// has deposited round r+1, which it can only do after finishing its
// round-r reads, so the overwrite cannot race them. Clock arithmetic is
// unchanged: the old release barrier deposited now=0 everywhere and
// contributed nothing to virtual time.
//
// A subtle ordering keeps the election correct: the shard-last rank
// appends itself to its shard's waiter list under the shard lock BEFORE
// decrementing pendingShards. Decrementing first would let a
// concurrent releaser reset the shard in between, and the late
// self-append would land in the next round's waiter list — a rank
// asleep in round r but only woken by round r+1's releaser, which
// round r+1 can then never reach.
//
// Only one releaser can be live at a time: round r+1 cannot complete
// until the round-r releaser's own await returns (it is a member rank),
// so the shared relbuf scratch needs no lock.
type collHub struct {
	shards []collShard
	n      int
	// pendingShards counts shards that have not yet filled this round;
	// the decrement to zero elects the releaser.
	pendingShards atomic.Int32
	// gen is the round number; advancing it (after the round outputs and
	// the shard resets are written) is the release signal waiters poll.
	// gen&1 selects the round's parity slot set.
	gen      atomic.Int64
	poisoned atomic.Bool
	roundMax float64 // max deposited clock of the released round
	// roundMaxRank is the comm rank that deposited roundMax — the last
	// entrant whose arrival releases the collective, i.e. the causing
	// rank of every other member's collective wait.
	roundMaxRank int32
	relbuf       []*task // releaser scratch (capacity n)

	// redOut/vredOut are the published int64 reduction results, indexed
	// by round parity (vredOut capacity is retained across rounds).
	redOut  [2]int64
	vredOut [2][]int64

	// Deposit slots, one per member rank per parity, written by plain
	// stores before the deposit barrier and read after it. They serve
	// the data-movement collectives (bcast; allgather in tests) — the hot
	// int64 reductions travel through the shard fold above and never
	// touch them — so they are allocated lazily on first use (the sync.Once
	// runs on every member before its deposit, and the deposit barrier
	// publishes the arrays to pure readers).
	ideps     [2][][]int64
	idepsOnce sync.Once

	// tdeps are the same parity slots for CreateGraphTopo's creation
	// round (joinTopo): every member's topology handle.
	tdeps     [2][]*Topo
	tdepsOnce sync.Once

	// adeps is the untyped publication slot set used by WinCreate. It is
	// deliberately single-buffered: unlike the typed slots, its writers
	// are mid-phase republishes into the writer's own slot (see
	// WinCreate), which must remain visible across the next barrier
	// regardless of parity. That is safe because no two adjacent rounds
	// both touch adeps — every adeps rendezvous is preceded by an
	// id-allocation collective that doesn't — so a deposit can never
	// race the previous round's reads. Keep that invariant when adding
	// adeps users.
	adeps     []any
	adepsOnce sync.Once
}

func newCollHub(n int) *collHub {
	nshard := (n + (1 << hubShardShift) - 1) >> hubShardShift
	h := &collHub{
		shards: make([]collShard, nshard),
		n:      n,
		relbuf: make([]*task, 0, n),
	}
	for i := range h.shards {
		size := n - i<<hubShardShift
		if size > 1<<hubShardShift {
			size = 1 << hubShardShift
		}
		h.shards[i].size = size
		h.shards[i].maxRank = -1
		h.shards[i].waiters = make([]*task, 0, size)
	}
	h.pendingShards.Store(int32(nshard))
	return h
}

func (h *collHub) ensureIdeps() {
	h.idepsOnce.Do(func() {
		h.ideps[0] = make([][]int64, h.n)
		h.ideps[1] = make([][]int64, h.n)
	})
}

func (h *collHub) ensureTdeps() {
	h.tdepsOnce.Do(func() {
		h.tdeps[0] = make([]*Topo, h.n)
		h.tdeps[1] = make([]*Topo, h.n)
	})
}

func (h *collHub) ensureAdeps() {
	h.adepsOnce.Do(func() {
		h.adeps = make([]any, h.n)
	})
}

// poison marks the hub failed. It only raises the flag; World.poison
// performs the one unpark sweep over all tasks afterwards, which covers
// ranks parked here (flag first, then wake, so a rank cannot re-park
// without observing the flag).
func (h *collHub) poison() {
	h.poisoned.Store(true)
}

// clearDeps drops deposit-slot references so a pooled hub does not pin
// caller buffers or topologies across runs.
func (h *collHub) clearDeps() {
	for p := 0; p < 2; p++ {
		clear(h.ideps[p])
		clear(h.tdeps[p])
		h.vredOut[p] = h.vredOut[p][:0]
	}
	clear(h.adeps)
}

// waitGen blocks the task until the hub's round advances past gen.
// Wakeups may be spurious (a banked notification from unrelated
// traffic), hence the re-check loop.
func (h *collHub) waitGen(t *task, gen int64) {
	for h.gen.Load() == gen {
		if h.poisoned.Load() {
			panic(collAbort)
		}
		t.park()
	}
}

// await is a reusable full barrier over the communicator that also folds
// now across all ranks: every caller returns max(now_r) plus the comm
// rank that deposited it (the round's last entrant; ties break to the
// lowest rank so the result is schedule-independent). Task t must be
// the goroutine's own task and rank its rank within this hub.
func (h *collHub) await(t *task, rank int, now float64) (float64, int32) {
	return h.awaitFold(t, rank, now, foldNone, OpSum, 0, nil)
}

// awaitFold is await plus a shard-local int64 reduction: each arrival
// folds v (foldScalar) or vec (foldVec) into its shard's accumulator
// under the shard lock it already holds, and the releaser folds the
// O(n/64) shard partials and publishes the result in redOut/vredOut at
// the round's parity. This replaces the old per-rank read of all n
// deposit slots — O(n^2) total work per collective, the superlinear
// wall in the ranks-scaling curve — with O(n) total. All members of a
// round must pass the same kind and op (the MPI collective contract).
func (h *collHub) awaitFold(t *task, rank int, now float64, kind foldKind, op ReduceOp, v int64, vec []int64) (float64, int32) {
	sh := &h.shards[rank>>hubShardShift]
	sh.mu.Lock()
	if h.poisoned.Load() {
		sh.mu.Unlock()
		panic(collAbort)
	}
	gen := h.gen.Load()
	if sh.maxRank < 0 || now > sh.maxNow || (now == sh.maxNow && int32(rank) < sh.maxRank) {
		sh.maxNow = now
		sh.maxRank = int32(rank)
	}
	switch kind {
	case foldScalar:
		if sh.accN == 0 {
			sh.acc = v
		} else {
			sh.acc = op.foldInt64(sh.acc, v)
		}
		sh.accN++
	case foldVec:
		if sh.vaccN == 0 {
			sh.vacc = append(sh.vacc[:0], vec...)
		} else {
			if len(vec) != len(sh.vacc) {
				sh.mu.Unlock()
				panic(fmt.Sprintf("mpi: AllreduceInt64 length mismatch: rank %d has %d, peers have %d", rank, len(vec), len(sh.vacc)))
			}
			for i, x := range vec {
				sh.vacc[i] = op.foldInt64(sh.vacc[i], x)
			}
		}
		sh.vaccN++
	}
	sh.count++
	last := sh.count == sh.size
	sh.waiters = append(sh.waiters, t) // self-append BEFORE the decrement below
	sh.mu.Unlock()
	if !last || h.pendingShards.Add(-1) > 0 {
		h.waitGen(t, gen)
		return h.roundMax, h.roundMaxRank
	}
	// This rank completed the last pending shard: release the round.
	p := gen & 1
	maxNow := 0.0
	maxRank := int32(-1)
	var racc int64
	raccN := 0
	rvec := h.vredOut[p][:0]
	rvecN := 0
	buf := h.relbuf[:0]
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		if s.maxRank >= 0 && (maxRank < 0 || s.maxNow > maxNow || (s.maxNow == maxNow && s.maxRank < maxRank)) {
			maxNow = s.maxNow
			maxRank = s.maxRank
		}
		if s.accN > 0 {
			if raccN == 0 {
				racc = s.acc
			} else {
				racc = op.foldInt64(racc, s.acc)
			}
			raccN += s.accN
			s.accN = 0
		}
		if s.vaccN > 0 {
			if rvecN == 0 {
				rvec = append(rvec, s.vacc...)
			} else {
				if len(s.vacc) != len(rvec) {
					s.mu.Unlock()
					panic(fmt.Sprintf("mpi: AllreduceInt64 length mismatch across shards: %d vs %d", len(s.vacc), len(rvec)))
				}
				for j, x := range s.vacc {
					rvec[j] = op.foldInt64(rvec[j], x)
				}
			}
			rvecN += s.vaccN
			s.vaccN = 0
		}
		buf = append(buf, s.waiters...)
		clear(s.waiters)
		s.waiters = s.waiters[:0]
		s.count = 0
		s.maxNow = 0
		s.maxRank = -1
		s.mu.Unlock()
	}
	if (raccN != 0 && raccN != h.n) || (rvecN != 0 && rvecN != h.n) {
		panic("mpi: mismatched collective operations across ranks (MPI contract violation)")
	}
	h.roundMax = maxNow
	h.roundMaxRank = maxRank
	h.redOut[p] = racc
	h.vredOut[p] = rvec
	h.pendingShards.Store(int32(len(h.shards)))
	h.gen.Add(1) // publishes round outputs + resets; waiters may now proceed
	if pool := t.pool; pool != nil {
		pool.readyBatch(buf, t)
	} else {
		for _, wt := range buf {
			if wt != t {
				wt.unpark()
			}
		}
	}
	return maxNow, maxRank
}

// enterColl deposits this rank's payload (dep performs plain writes to
// the rank's own slots at parity p; no lock needed, the barrier orders
// them) and runs the deposit barrier. It returns the round's parity for
// the read phase plus the synchronized clock — the maximum virtual time
// across all ranks at entry — and the comm rank that brought it (the
// last entrant). The parity read is stable: the hub's round cannot
// advance before this rank itself deposits.
func (c *Comm) enterColl(dep func(h *collHub, p int)) (*collHub, int, float64, int) {
	c.ps.collStart = c.ps.now
	h := c.w.hub
	p := int(h.gen.Load() & 1)
	if dep != nil {
		dep(h, p)
	}
	tmax, lastRank := h.await(c.ps.task, c.rank, c.ps.now)
	return h, p, tmax, int(lastRank)
}

// exitColl applies the synchronized clock and books the collective.
// last is the comm rank of the round's last entrant: the rank every
// other member's collective wait is attributed to. There is no release
// barrier — parity double-buffering (see collHub) makes the read phase
// race-free without one.
func (c *Comm) exitColl(tmax float64, last int, bytes int64) {
	end := tmax + c.w.cost.collCost(c.w.n, bytes)
	c.waitFor(end, WaitCollective, last, tmax)
	c.ps.rs.CollCount++
	c.event(EvColl, -1, -1, bytes, c.ps.collStart)
}

// Barrier blocks until all ranks have entered it.
func (c *Comm) Barrier() {
	_, _, tmax, last := c.enterColl(nil)
	c.exitColl(tmax, last, 8)
}

// AllreduceInt64 combines in element-wise across all ranks with op and
// returns the combined vector on every rank. All ranks must pass vectors
// of the same length. The fold happens inside the deposit barrier (see
// awaitFold), so each rank's cost is O(len(in)), independent of the
// communicator size.
func (c *Comm) AllreduceInt64(op ReduceOp, in []int64) []int64 {
	c.ps.collStart = c.ps.now
	h := c.w.hub
	p := h.gen.Load() & 1
	tmax, last := h.awaitFold(c.ps.task, c.rank, c.ps.now, foldVec, op, 0, in)
	out := append([]int64(nil), h.vredOut[p]...)
	c.exitColl(tmax, int(last), int64(8*len(in)))
	return out
}

// AllreduceScalarInt64 combines a single int64 across all ranks with op
// and returns the combined value on every rank. It is equivalent to
// AllreduceInt64 on a one-element vector but allocation-free: the value
// folds into the shard accumulator on arrival and every rank reads one
// published result. The matching and coloring drivers call this once per
// round for termination detection, which makes it part of the
// steady-state hot path.
func (c *Comm) AllreduceScalarInt64(op ReduceOp, v int64) int64 {
	c.ps.collStart = c.ps.now
	h := c.w.hub
	p := h.gen.Load() & 1
	tmax, last := h.awaitFold(c.ps.task, c.rank, c.ps.now, foldScalar, op, v, nil)
	out := h.redOut[p]
	c.exitColl(tmax, int(last), 8)
	return out
}

// BcastInt64 broadcasts root's data to all ranks; every rank returns a
// private copy. Non-root ranks' data argument is ignored (may be nil).
func (c *Comm) BcastInt64(root int, data []int64) []int64 {
	c.checkRank(root, "bcast")
	h, p, tmax, last := c.enterColl(func(h *collHub, p int) {
		h.ensureIdeps()
		if c.rank == root {
			h.ideps[p][root] = data
		}
	})
	out := append([]int64(nil), h.ideps[p][root]...)
	c.exitColl(tmax, last, int64(8*len(out)))
	return out
}
