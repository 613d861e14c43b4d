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
	OpMax
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("ReduceOp(%d)", int(op))
}

func (op ReduceOp) foldInt64(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic("mpi: unknown ReduceOp")
}

// fold combines src into acc, which holds the fold of n earlier
// contributions: the first is copied in (reusing acc's capacity, so
// steady-state rounds never allocate and the caller's vector is never
// retained), later ones fold element-wise. It reports false, leaving
// acc as it was, when src's length differs from acc's. Deposits fold at
// the shard level with it and the releaser folds shard partials with
// it, so both levels combine alike.
func (op ReduceOp) fold(acc []int64, n int, src []int64) ([]int64, bool) {
	if n == 0 {
		return append(acc[:0], src...), true
	}
	if len(src) != len(acc) {
		return acc, false
	}
	for i, x := range src {
		acc[i] = op.foldInt64(acc[i], x)
	}
	return acc, true
}

const collAbort = "mpi: collective aborted: a peer rank failed"

// hubShardShift sets the collective hub's shard width: ranks are mapped
// to shards in contiguous blocks of 1<<hubShardShift, so a barrier
// arrival touches one shard-local lock and the per-rank virtual clocks
// (and int64 reduction contributions) are folded into one running
// accumulator per shard. Only the single last-to-arrive rank walks all
// shards.
const hubShardShift = 6

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
	// vacc folds this round's reduction deposits element-wise; vaccN
	// counts them (vacc's capacity is retained, so steady-state
	// reductions never allocate). Both ops are associative and
	// commutative (sum wraps mod 2^64), so folding in arrival order
	// within the shard and then across shards in shard order is
	// bit-identical to a rank-ordered fold — which is what lets a
	// collective advance all resident clocks with one shard-local
	// deposit instead of every rank reading every slot.
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
// The barrier is sharded: a rank folds its virtual clock (and, for a
// reduction, its contribution vector) into its own shard under that
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
// round-r reads, so the overwrite cannot race them. The same argument
// lets a rank write a slot of round r+1's set during round r's read
// phase, as WinCreate republishes its assembled window for a round r+1
// that deposits nothing: the round-(r-1) readers of that set all
// deposited round r first. Clock arithmetic is
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

	// vredOut is the published reduction result, indexed by round
	// parity (its capacity is retained across rounds).
	vredOut [2][]int64

	// deps are the deposit slots, one per member rank per parity,
	// written by plain stores before the deposit barrier and read after
	// it. They serve only the two rounds that move data rather than fold
	// it, CreateGraphTopo's creation round (joinTopo) and WinCreate;
	// every reduction, newID's included, travels through the shard fold
	// above and never touches them. So they are allocated lazily on
	// first use (the sync.Once runs on every member before its deposit,
	// and the deposit barrier publishes the arrays to pure readers).
	deps     [2][]any
	depsOnce sync.Once
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

func (h *collHub) ensureDeps() {
	h.depsOnce.Do(func() {
		h.deps[0] = make([]any, h.n)
		h.deps[1] = make([]any, h.n)
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
		clear(h.deps[p])
		h.vredOut[p] = h.vredOut[p][:0]
	}
}

// released reports whether the hub's round has advanced past gen.
// Otherwise it suspends the task and reports false; the releaser unparks
// every waiter of the round. Wakeups may be spurious (a banked
// notification from unrelated traffic), hence the caller asks again.
func (h *collHub) released(t *task, gen int64) bool {
	for h.gen.Load() == gen {
		if h.poisoned.Load() {
			panic(collAbort)
		}
		if t.suspend() {
			return false
		}
	}
	return true
}

// deposit is the arrival half of a collective round, plus a shard-local
// int64 reduction: each arrival folds vec into its shard's accumulator
// under the shard lock it already holds (a nil vec is a clock-only
// round), and the releaser folds the O(n/64) shard partials with the
// same fold and publishes the result in vredOut at the round's parity.
// This replaces the old per-rank read of all n deposit slots — O(n^2)
// total work per collective, the superlinear wall in the ranks-scaling
// curve — with O(n) total. All members of a round must pass vectors of
// one length (or all nil) and one op (the MPI collective contract). It returns the round's generation and
// whether this rank was the last to arrive, which released the round;
// any other waits (released) until the generation advances. Either way
// the round's outputs and roundMax/roundMaxRank are then readable until
// this rank enters its next collective.
func (h *collHub) deposit(t *task, rank int, now float64, op ReduceOp, vec []int64) (int64, bool) {
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
	if vec != nil {
		acc, ok := op.fold(sh.vacc, sh.vaccN, vec)
		if !ok {
			sh.mu.Unlock()
			panic(fmt.Sprintf("mpi: AllreduceInt64 length mismatch: rank %d has %d, peers have %d", rank, len(vec), len(acc)))
		}
		sh.vacc = acc
		sh.vaccN++
	}
	sh.count++
	last := sh.count == sh.size
	sh.waiters = append(sh.waiters, t) // self-append BEFORE the decrement below
	sh.mu.Unlock()
	if !last || h.pendingShards.Add(-1) > 0 {
		return gen, false
	}
	// This rank completed the last pending shard: release the round.
	p := gen & 1
	maxNow := 0.0
	maxRank := int32(-1)
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
		if s.vaccN > 0 {
			acc, ok := op.fold(rvec, rvecN, s.vacc)
			if !ok {
				s.mu.Unlock()
				panic(fmt.Sprintf("mpi: AllreduceInt64 length mismatch across shards: %d vs %d", len(s.vacc), len(rvec)))
			}
			rvec = acc
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
	if rvecN != 0 && rvecN != h.n {
		panic("mpi: mismatched collective operations across ranks (MPI contract violation)")
	}
	h.roundMax = maxNow
	h.roundMaxRank = maxRank
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
	return gen, true
}

// enterColl deposits this rank's payload (dep performs plain writes to
// the rank's own slots at parity p; no lock needed, the barrier orders
// them) and runs the deposit barrier, a clock-only round waited out as
// Barrier waits. It returns the round's parity for the read phase plus
// the synchronized clock — the maximum virtual time across all ranks at
// entry — and the comm rank that brought it (the last entrant; ties
// break to the lowest rank so the result is schedule-independent). The
// parity read is stable: the hub's round cannot advance before this rank
// itself deposits.
func (c *Comm) enterColl(dep func(h *collHub, p int)) (*collHub, int, float64, int) {
	h := c.w.hub
	if dep != nil {
		dep(h, int(h.gen.Load()&1))
	}
	for {
		if p, ok := c.reduceStep(OpSum, nil); ok {
			return h, int(p), h.roundMax, int(h.roundMaxRank)
		}
		c.Park()
	}
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
	for !c.BarrierStep() {
		c.Park()
	}
}

// BarrierStep is the step form of Barrier (see Steps).
func (c *Comm) BarrierStep() bool {
	if _, ok := c.reduceStep(OpSum, nil); !ok {
		return false
	}
	c.exitColl(c.w.hub.roundMax, int(c.w.hub.roundMaxRank), 8)
	return true
}

// AllreduceInt64 combines in element-wise across all ranks with op and
// returns the combined vector on every rank. All ranks must pass vectors
// of the same length. The fold happens inside the deposit barrier (see
// deposit), so each rank's cost is O(len(in)), independent of the
// communicator size.
func (c *Comm) AllreduceInt64(op ReduceOp, in []int64) []int64 {
	for {
		if out, ok := c.AllreduceInt64Step(op, in, nil); ok {
			return out
		}
		c.Park()
	}
}

// AllreduceInt64Step is the step form of AllreduceInt64 (see Steps): the
// combined vector is appended to out[:0] and returned with true; with
// false, out is returned unchanged and must not be stored. Only the
// first call of a round reads in, and it copies it, so the caller may
// reuse in as soon as that call returns.
func (c *Comm) AllreduceInt64Step(op ReduceOp, in, out []int64) ([]int64, bool) {
	p, ok := c.reduceStep(op, in)
	if !ok {
		return out, false
	}
	h := c.w.hub
	out = append(out[:0], h.vredOut[p]...)
	c.exitColl(h.roundMax, int(h.roundMaxRank), int64(8*len(in)))
	return out, true
}

// AllreduceScalarInt64 combines a single int64 across all ranks with op
// and returns the combined value on every rank. It is AllreduceInt64 on
// a one-element vector (the two may meet in one round, as MPI's count-1
// allreduce) without the result slice: the word folds into the shard
// accumulator on arrival and every rank reads one published result. The
// matching and coloring drivers call this once per round for
// termination detection, which makes it part of the steady-state hot
// path; it does not allocate.
func (c *Comm) AllreduceScalarInt64(op ReduceOp, v int64) int64 {
	for {
		if out, ok := c.AllreduceScalarInt64Step(op, v); ok {
			return out
		}
		c.Park()
	}
}

// AllreduceScalarInt64Step is the step form of AllreduceScalarInt64 (see
// Steps).
func (c *Comm) AllreduceScalarInt64Step(op ReduceOp, v int64) (int64, bool) {
	one := [1]int64{v}
	p, ok := c.reduceStep(op, one[:])
	if !ok {
		return 0, false
	}
	h := c.w.hub
	out := h.vredOut[p][0]
	c.exitColl(h.roundMax, int(h.roundMaxRank), 8)
	return out, true
}

// reduceStep deposits the rank's contribution vec (nil for a clock-only
// round) on its first call and reports, then and on every later call,
// whether the round has been released; when it has, it returns the
// round's parity for reading the outputs.
func (c *Comm) reduceStep(op ReduceOp, vec []int64) (int64, bool) {
	ps, h := c.ps, c.w.hub
	if ps.collGen == 0 {
		ps.collStart = ps.now
		gen, last := h.deposit(ps.task, c.rank, ps.now, op, vec)
		if last {
			return gen & 1, true
		}
		ps.collGen = gen + 1
	}
	gen := ps.collGen - 1
	if !h.released(ps.task, gen) {
		return 0, false
	}
	ps.collGen = 0
	return gen & 1, true
}
