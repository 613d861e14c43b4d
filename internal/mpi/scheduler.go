package mpi

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// SchedMode selects how ranks' steps are executed (see WithScheduler).
// Rank goroutines are scheduled by the Go runtime in every mode; the
// modes differ only for a rank inside Comm.Steps.
type SchedMode int

const (
	// SchedAuto picks SchedWorkers for worlds of at least
	// pooledMinProcs ranks and SchedDirect below that, where per-run
	// pool setup would dominate.
	SchedAuto SchedMode = iota
	// SchedDirect runs a rank's steps on its own goroutine, which parks
	// at each wait and is resumed by whatever ends it. Simple and fastest
	// for small worlds.
	SchedDirect
	// SchedWorkers runs steps on a ticket pool of min(GOMAXPROCS, ranks,
	// 64) tickets, one per sharded step queue: a step that would wait is
	// queued when its wait ends, and any stepping goroutine holding a
	// ticket runs it, so a wait costs a queue push instead of a goroutine
	// park and resume. Both modes execute the same deterministic
	// virtual-time matching logic, so results are bit-identical across
	// them.
	SchedWorkers
)

func (m SchedMode) String() string {
	switch m {
	case SchedAuto:
		return "auto"
	case SchedDirect:
		return "direct"
	case SchedWorkers:
		return "workers"
	}
	return "SchedMode(?)"
}

// pooledMinProcs is the world size at which SchedAuto switches to the
// ticket pool. Below it, setting up the pool costs more than it saves.
const pooledMinProcs = 256

// maxTickets bounds the pool so the free set fits one atomic word.
const maxTickets = 64

func resolveSched(mode SchedMode, procs int) SchedMode {
	if mode == SchedAuto {
		if procs >= pooledMinProcs {
			return SchedWorkers
		}
		return SchedDirect
	}
	return mode
}

func ticketCount(procs int) int {
	return max(1, min(runtime.GOMAXPROCS(0), procs, maxTickets))
}

// taskq is a growable FIFO ring of tasks (one per shard).
type taskq struct {
	buf  []*task
	head int
	n    int
}

func (q *taskq) push(t *task) {
	if q.n == len(q.buf) {
		grown := make([]*task, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

func (q *taskq) pop() *task {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

// schedShard is one ticket's step queue. Ranks map to shards in blocks
// (rank*T/n), so ring and mesh neighborhoods mostly queue steps on their
// own shard and wakers from other shards contend only on that shard's
// lock, never on a global one.
type schedShard struct {
	mu sync.Mutex
	q  taskq // stepping ranks whose step can run (see steps)
	// pad keeps neighboring shards' locks off one cache line.
	_ [16]byte
}

// ticketPool bounds how many goroutines execute steps at once, without
// running any goroutine of its own. Only a rank goroutine inside
// Comm.Steps takes part, and it runs steps only while it holds one of the
// pool's tickets; every other goroutine is the Go runtime's to schedule.
// Ticket i belongs to shard i: its holder drains shard i's step queue
// first and steals from the others when it is empty. Draining the shard
// of the holder's own rank instead lets tickets drift onto one shard,
// where neighboring ranks then run against each other.
//
// A stepping goroutine is execActive (holding a ticket or about to take
// one), execIdle (asleep in idle, no ticket) or execDone (its step
// finished; it leaves steps). Moves into and out of execIdle happen under
// idleMu, so a goroutine is woken once: by pass with a ticket for queued
// steps (wakeIdle), or without one when its own step finishes while it
// sleeps (finish). No wakeup is lost, by the usual two-sided protocol:
// queueing a step, listing an idle goroutine and freeing a ticket are
// each followed by a check for the other two (ready and steps claim a
// free ticket; pass re-scans after freeing). Whichever side comes second
// sees the other.
type ticketPool struct {
	shards []schedShard
	free   atomic.Uint64 // bit i set: ticket i is free

	// idle holds the stepping goroutines asleep without a ticket, which
	// pass wakes to run queued steps; nidle is its length, read without
	// the lock.
	idleMu sync.Mutex
	idle   []*task
	nidle  atomic.Int32
	// faults holds the panic of each step that failed, by rank, until
	// the rank's goroutine re-raises it (under idleMu).
	faults map[int32]any
}

// newTicketPool returns a pool whose tickets are all free.
func newTicketPool(ntickets int) *ticketPool {
	p := &ticketPool{shards: make([]schedShard, ntickets)}
	p.free.Store(^uint64(0) >> (64 - ntickets))
	return p
}

// push queues t's step on its shard without claiming a ticket.
func (p *ticketPool) push(t *task) {
	sh := &p.shards[t.shard]
	sh.mu.Lock()
	sh.q.push(t)
	sh.mu.Unlock()
}

// ready queues t's step on its shard and, if a ticket is free, passes it.
func (p *ticketPool) ready(t *task) {
	p.push(t)
	p.claimFree(int(t.shard))
}

// readyBatch unparks every claimable task in ts except skip: a stepping
// task's step is queued, any other task's goroutine resumed. It takes
// each scheduler shard's lock once per run of same-shard tasks instead
// of once per step. Collective releasers call it with waiter lists that
// are walked in hub-shard (≈ rank) order; ranks map to scheduler shards
// in contiguous blocks, so the list is nearly sorted by shard and the
// batch degenerates to one lock round-trip per shard in the common case.
// Tasks that are not parked get a banked notification, exactly as unpark
// would do.
func (p *ticketPool) readyBatch(ts []*task, skip *task) {
	i, n := 0, len(ts)
	for i < n {
		t := ts[i]
		i++
		if t == skip || !t.claimParked() {
			continue
		}
		if t.step == nil {
			t.resume()
			continue
		}
		shard := t.shard
		sh := &p.shards[shard]
		sh.mu.Lock()
		sh.q.push(t)
		for i < n {
			t2 := ts[i]
			if t2 == skip {
				i++
				continue
			}
			if t2.shard != shard {
				break
			}
			i++
			if !t2.claimParked() {
				continue
			}
			if t2.step == nil {
				t2.resume()
			} else {
				sh.q.push(t2)
			}
		}
		sh.mu.Unlock()
		p.claimFree(int(shard))
	}
}

// claimFree claims one free ticket, preferring the shard's own, and
// passes it.
func (p *ticketPool) claimFree(prefer int) {
	for {
		mask := p.free.Load()
		if mask == 0 {
			return
		}
		id := prefer
		if mask&(1<<uint(id)) == 0 {
			id = bits.TrailingZeros64(mask)
		}
		if p.take(id) {
			p.pass(id)
			return
		}
	}
}

// take clears ticket id's free bit, reporting whether it was set.
func (p *ticketPool) take(id int) bool {
	for {
		old := p.free.Load()
		if old&(1<<uint(id)) == 0 {
			return false
		}
		if p.free.CompareAndSwap(old, old&^(1<<uint(id))) {
			return true
		}
	}
}

// pass hands ticket id to an idle stepping goroutine when steps are
// queued, or frees it. The re-scan after freeing finds any step queued,
// or goroutine listed idle, without seeing the free bit; if the ticket is
// claimed again in between, its new holder wakes that goroutine instead.
func (p *ticketPool) pass(id int) {
	for {
		if e := p.wakeIdle(); e != nil {
			e.ticket = int32(id)
			e.resume()
			return
		}
		atomicOr(&p.free, 1<<uint(id))
		if !p.queued() || !p.take(id) {
			return
		}
	}
}

// grab pops a step from shard id's queue, stealing from the others when
// it is empty.
func (p *ticketPool) grab(id int) *task {
	n := len(p.shards)
	for i := 0; i < n; i++ {
		sh := &p.shards[(id+i)%n]
		sh.mu.Lock()
		t := sh.q.pop()
		sh.mu.Unlock()
		if t != nil {
			return t
		}
	}
	return nil
}

// queued reports whether any shard holds a step while an idle goroutine
// could run it.
func (p *ticketPool) queued() bool {
	if p.nidle.Load() == 0 {
		return false
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n := sh.q.n
		sh.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

const (
	execActive = int32(iota)
	execIdle
	execDone
)

// steps runs the executor loop for t, the calling goroutine's own task,
// whose step is set. It queues that step, then runs queued steps — its
// own or any other rank's, each until it would wait — while it holds a
// ticket, and sleeps idle while it holds none. It returns once t's step
// is done, whoever ran it, passing on the ticket it holds by then.
func (p *ticketPool) steps(t *task) {
	t.ticket = -1
	p.push(t)
	for {
		id := int(t.ticket)
		if t.exec.Load() == execDone {
			if id >= 0 {
				p.pass(id)
			}
			return
		}
		if id >= 0 {
			if s := p.grab(id); s != nil {
				p.run(s)
				continue
			}
		}
		if !p.goIdle(t) {
			continue // the step finished after all
		}
		if id >= 0 {
			p.pass(id)
		} else {
			p.claimFree(int(t.shard))
		}
		t.block()
	}
}

// run runs s's step once; a step that panics counts as done, its panic
// kept for the rank's goroutine to raise.
func (p *ticketPool) run(s *task) {
	done := func() (done bool) {
		defer func() {
			if v := recover(); v != nil {
				p.idleMu.Lock()
				if p.faults == nil {
					p.faults = make(map[int32]any)
				}
				p.faults[s.rank] = v
				p.idleMu.Unlock()
				done = true
			}
		}()
		return s.step()
	}()
	if done {
		p.finish(s)
	}
}

// finish ends s's step: its goroutine, active, sees execDone; asleep, it
// is taken off the idle list and resumed without a ticket.
func (p *ticketPool) finish(s *task) {
	s.step = nil
	p.idleMu.Lock()
	wake := s.exec.Load() == execIdle
	if wake {
		p.unlist(s)
	}
	s.exec.Store(execDone)
	p.idleMu.Unlock()
	if wake {
		s.resume()
	}
}

// goIdle lists t's goroutine as idle, holding no ticket, unless its step
// is already done.
func (p *ticketPool) goIdle(t *task) bool {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	if t.exec.Load() == execDone {
		return false
	}
	t.exec.Store(execIdle)
	t.ticket = -1
	t.idleAt = int32(len(p.idle))
	p.idle = append(p.idle, t)
	p.nidle.Add(1)
	return true
}

// wakeIdle claims an idle goroutine to run queued steps, or returns nil
// when there is none or no step is queued.
func (p *ticketPool) wakeIdle() *task {
	if !p.queued() {
		return nil
	}
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	if len(p.idle) == 0 {
		return nil
	}
	e := p.idle[len(p.idle)-1]
	p.unlist(e)
	e.exec.Store(execActive)
	return e
}

// unlist removes t from the idle list (under idleMu), moving the last
// entry into its place.
func (p *ticketPool) unlist(t *task) {
	n := len(p.idle) - 1
	last := p.idle[n]
	p.idle[t.idleAt] = last
	last.idleAt = t.idleAt
	p.idle[n] = nil
	p.idle = p.idle[:n]
	p.nidle.Add(-1)
}

// fault removes and returns the panic of t's failed step, if any.
func (p *ticketPool) fault(t *task) (any, bool) {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	v, ok := p.faults[t.rank]
	delete(p.faults, t.rank)
	return v, ok
}

// atomicOr is a CAS loop standing in for atomic.Uint64.Or, which
// requires a go1.23 module.
func atomicOr(u *atomic.Uint64, bitsToSet uint64) {
	for {
		old := u.Load()
		if old&bitsToSet == bitsToSet || u.CompareAndSwap(old, old|bitsToSet) {
			return
		}
	}
}
