package mpi

import (
	"fmt"
	"sync/atomic"
)

// A task is the scheduler's view of one rank: a resumable unit of work
// that parks when it cannot make progress (empty mailbox, barrier not
// yet full) and is unparked by the event that makes progress possible
// (a message push, a barrier release, a poison sweep). The rank body
// runs on its own goroutine — arbitrary Go code needs a real stack —
// which the Go runtime schedules in every mode. Only a rank inside
// Comm.Steps differs in pooled mode: its waits park the step, not the
// goroutine, and the step is queued for whichever stepping goroutine
// holds one of the pool's tickets (see ticketPool).
//
// Park/unpark is a saturating one-slot notification (the futex/eventcount
// shape): unpark on a running task sets a sticky "notified" token that
// the next park consumes without blocking. Callers therefore tolerate
// spurious wakeups by construction — every blocking site re-checks its
// predicate under the relevant lock after park returns.
//
// The blocking primitive underneath is a channel of capacity one per
// task: block receives, resume sends, and a resume that runs before its
// block waits in the slot. A sleeping goroutine waits on the channel's
// own queue. A semaphore built from an atomic count and a mutex fits in
// the task itself and would save the 104 bytes per rank the channel
// adds to a pooled 16384-rank world's steady state, but its sleepers
// spin in the mutex's slow path and then queue in the runtime's global
// semaphore table. At 16384 ranks on a 2-CPU host that table's lock and
// tree cost 15% of a ring's CPU; the channel takes 15-22% off the ring
// and a fifth off the wall time of the benchmark's world-16k workload.
type task struct {
	// status is one of taskRunning/taskNotified/taskParked (below).
	status atomic.Int32
	rank   int32
	shard  int32
	// ticket is the id of the ticket the task's goroutine holds while it
	// executes steps (pooled mode), or -1. The passer writes it before
	// resume(), so it is the channel send that publishes it.
	ticket int32
	// exec is the state of a stepping rank's goroutine in pooled mode:
	// execActive, execIdle or execDone (see ticketPool.steps); idleAt is
	// its position in the pool's idle list while execIdle.
	exec   atomic.Int32
	idleAt int32
	// pool is nil in direct scheduling mode, where a step parks its
	// goroutine like any other wait.
	pool *ticketPool
	// step is the rank's resumable program while it runs one
	// (Comm.Steps), else nil. A parked stepping task is woken onto its
	// shard's step queue, where any ticket holder runs it.
	step func() bool
	// wake holds at most one resume not yet consumed by block.
	wake chan struct{}
}

const (
	taskRunning  = int32(iota) // running, no wakeup pending
	taskNotified               // running, a wakeup arrived and is banked
	taskParked                 // blocked in park awaiting unpark
)

// initTask makes the wake slot. Called exactly once when the task's
// backing storage is created, never on pooled reuse.
func (t *task) initTask() {
	t.wake = make(chan struct{}, 1)
}

// block waits for one resume, consuming a banked one without sleeping.
func (t *task) block() {
	<-t.wake
}

// resume delivers one block's worth of progress: it wakes a sleeping
// blocker, or banks the wakeup for the next block. Strictly paired 1:1
// with block by the park/unpark protocol, so it never blocks: a full
// slot means a second resume without a block in between, a protocol
// bug that would otherwise surface only as a rare hang.
func (t *task) resume() {
	select {
	case t.wake <- struct{}{}:
	default:
		panic(fmt.Sprintf("mpi: rank %d resumed twice without blocking", t.rank))
	}
}

// reset prepares a pooled task for a new run. Only tasks from clean runs
// are reset, and in a clean run every resume met its block.
func (t *task) reset(rank, shard int32, pool *ticketPool) {
	if len(t.wake) != 0 {
		panic(fmt.Sprintf("mpi: pooled task of rank %d holds a wakeup from its last run", t.rank))
	}
	t.rank, t.shard, t.pool, t.step = rank, shard, pool, nil
	t.status.Store(taskRunning)
}

// suspend moves the running task to parked, to be made runnable again by
// unpark. It reports false instead when a wakeup is already banked, which
// it consumes: the caller then re-checks its predicate rather than
// waiting. Only the task's own program may call it, and a true return
// must be followed by sleep — or, in a step, by returning false.
func (t *task) suspend() bool {
	if t.status.CompareAndSwap(taskNotified, taskRunning) {
		return false // wakeup already banked: consume it, don't wait
	}
	if !t.status.CompareAndSwap(taskRunning, taskParked) {
		// An unpark slipped in between the two CASes and set Notified.
		t.status.Store(taskRunning)
		return false
	}
	return true
}

// sleep blocks a suspended task's goroutine until unpark. A step cannot
// sleep: the goroutine running it may be another rank's.
func (t *task) sleep() {
	if t.step != nil {
		t.status.CompareAndSwap(taskParked, taskRunning)
		panic("mpi: blocking call inside a step (use its step form)")
	}
	t.block()
}

// park blocks the calling task until unpark, consuming a banked
// notification instead of blocking when one is pending. Only the task's
// own goroutine may call it, and never while holding a runtime lock.
func (t *task) park() {
	if t.suspend() {
		t.sleep()
	}
}

// claimParked attempts the parked->running transition. True means the
// caller now owns making the task runnable (enqueue or resume); false
// means the task was running and a notification has been banked instead.
func (t *task) claimParked() bool {
	for {
		s := t.status.Load()
		if s == taskParked {
			if t.status.CompareAndSwap(taskParked, taskRunning) {
				return true
			}
			continue
		}
		// Running or already notified: bank (or keep) the token.
		if t.status.CompareAndSwap(s, taskNotified) {
			return false
		}
	}
}

// unpark makes a parked task runnable — queueing its step when it is
// stepping in pooled mode, else resuming its goroutine — or banks a
// notification if the task is running. Safe from any goroutine,
// idempotent, non-blocking.
func (t *task) unpark() {
	if !t.claimParked() {
		return
	}
	if p := t.pool; p != nil && t.step != nil {
		p.ready(t)
	} else {
		t.resume()
	}
}
