package mpi

import (
	"sync"
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
// The blocking primitive underneath is a benaphore (counting semaphore
// built from an atomic counter plus a mutex that rests locked) instead
// of the earlier per-task buffered channel: a channel costs ~100 heap
// bytes per rank plus a pointer, which at 64K-131K ranks is megabytes of
// per-world state and GC-visible pointers for a strictly 1:1
// block/resume handoff. The benaphore is two inline words. resume() may
// run before block() — the counter banks it, exactly like the old
// capacity-1 channel — and the mutex is only touched when the task
// really has to sleep.
type task struct {
	// status is one of taskRunning/taskNotified/taskParked (below).
	status atomic.Int32
	// sem is the benaphore count: 1 when a resume is banked, -1 while a
	// blocker holds (or is acquiring) mu, 0 at rest.
	sem   atomic.Int32
	rank  int32
	shard int32
	// ticket is the id of the ticket the task's goroutine holds while it
	// executes steps (pooled mode), or -1. The passer writes it before
	// resume(), so it is the benaphore that publishes it.
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
	// mu rests locked; resume unlocks it only when a blocker is waiting.
	mu sync.Mutex
}

const (
	taskRunning  = int32(iota) // running, no wakeup pending
	taskNotified               // running, a wakeup arrived and is banked
	taskParked                 // blocked in park awaiting unpark
)

// initTask locks the benaphore mutex into its rest state. Called exactly
// once when the task's backing storage is created, never on pooled reuse.
func (t *task) initTask() {
	t.mu.Lock()
}

// block waits for one resume, consuming a banked one without sleeping.
// Rest state: sem == 0 and mu locked. A first-mover blocker drives sem
// to -1 and sleeps in mu.Lock(); the matching resume drives sem back to
// 0 and unlocks, so the blocker's Lock succeeds and mu rests locked
// again.
func (t *task) block() {
	if t.sem.Add(-1) < 0 {
		t.mu.Lock()
	}
}

// resume delivers one block's worth of progress: it wakes a sleeping
// blocker, or banks the wakeup for the next block. Strictly paired 1:1
// with block by the park/unpark protocol.
func (t *task) resume() {
	if t.sem.Add(1) <= 0 {
		t.mu.Unlock()
	}
}

// reset prepares a pooled task for a new run. Only tasks from clean runs
// are reset, so sem is 0 and mu rests locked; the stores are defensive.
func (t *task) reset(rank, shard int32, pool *ticketPool) {
	t.rank, t.shard, t.pool, t.step = rank, shard, pool, nil
	t.status.Store(taskRunning)
	t.sem.Store(0)
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
