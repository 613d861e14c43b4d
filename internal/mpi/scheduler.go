package mpi

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// SchedMode selects how rank goroutines are scheduled (see WithScheduler).
type SchedMode int

const (
	// SchedAuto picks SchedWorkers for worlds of at least
	// pooledMinProcs ranks and SchedDirect below that, where per-run
	// pool setup would dominate.
	SchedAuto SchedMode = iota
	// SchedDirect is the legacy mode: every rank goroutine is runnable
	// whenever the Go scheduler pleases. Simple and fastest for small
	// worlds; at tens of thousands of ranks the runnable set itself
	// becomes the bottleneck.
	SchedDirect
	// SchedWorkers bounds the runnable ranks by a pool of
	// min(GOMAXPROCS, ranks, 64) tickets, one per sharded run queue: a
	// rank goroutine runs only while it holds a ticket, and when it
	// blocks in the runtime it hands the ticket straight to the next
	// queued rank. Both modes execute the same deterministic
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

// schedShard is one ticket's run queue. Ranks map to shards in blocks
// (rank*T/n), so ring and mesh neighborhoods mostly wake tasks on their
// own shard and senders from other shards contend only on that shard's
// lock, never on a global one.
type schedShard struct {
	mu sync.Mutex
	q  taskq // goroutines waiting for a ticket
	sq taskq // stepping ranks whose step can run (see steps)
	// pad keeps neighboring shards' locks off one cache line.
	_ [16]byte
}

// queue is the queue t waits in: the step queue while t runs a step.
func (sh *schedShard) queue(t *task) *taskq {
	if t.step != nil {
		return &sh.sq
	}
	return &sh.q
}

// ticketPool bounds how many rank goroutines run at once without
// running any goroutine of its own. It has one ticket per shard; a
// running rank holds exactly one, and a rank that parks, yields or
// exits passes it on (pass): to the next task queued on the ticket's
// shard, else to one stolen from another shard, else into the free
// set. Two rules keep it fast and race-free:
//
//   - Ticket i belongs to shard i: pass drains the ticket's shard
//     first, never the passing rank's. Passing to the parking rank's
//     shard instead lets tickets drift onto one shard, where
//     neighboring ring ranks then run against each other.
//   - A rank reads its ticket id before it becomes visible to other
//     goroutines (suspend before its running->parked CAS, yieldNow
//     before it queues itself). After that, a passer may resume the
//     task and overwrite the id.
//
// No wakeup is lost, by the usual two-sided protocol: ready pushes the
// task and then claims a free ticket, while pass frees its ticket and
// then re-scans every shard. Whichever side comes second sees the other.
type ticketPool struct {
	shards []schedShard
	free   atomic.Uint64 // bit i set: ticket i is free

	// idle holds the stepping goroutines asleep without a ticket, which
	// pass wakes to run queued steps; nidle is its length, read without
	// the lock. Every move into or out of execIdle happens under idleMu.
	idleMu sync.Mutex
	idle   []*task
	nidle  atomic.Int32
	// faults holds the panic of each step that failed, by rank, until
	// the rank's goroutine re-raises it (under idleMu).
	faults map[int32]any
}

// newTicketPool returns a pool whose tickets are all held by the
// caller, which starts the world by passing each one.
func newTicketPool(ntickets int) *ticketPool {
	return &ticketPool{shards: make([]schedShard, ntickets)}
}

// push enqueues t on its shard without claiming a ticket.
func (p *ticketPool) push(t *task) {
	sh := &p.shards[t.shard]
	sh.mu.Lock()
	sh.queue(t).push(t)
	sh.mu.Unlock()
}

// ready enqueues t on its shard and, if a ticket is free, passes it.
func (p *ticketPool) ready(t *task) {
	p.push(t)
	p.claimFree(int(t.shard))
}

// readyBatch unparks every claimable task in ts except skip, taking each
// scheduler shard's lock once per run of same-shard tasks instead of
// once per task. Collective releasers call it with waiter lists that
// are walked in hub-shard (≈ rank) order; ranks map to scheduler shards
// in contiguous blocks, so the list is nearly sorted by shard and the
// batch degenerates to one lock round-trip per shard in the common
// case. Tasks that are not parked get a banked notification, exactly as
// unpark would do.
func (p *ticketPool) readyBatch(ts []*task, skip *task) {
	i, n := 0, len(ts)
	for i < n {
		t := ts[i]
		i++
		if t == skip || !t.claimParked() {
			continue
		}
		shard := t.shard
		sh := &p.shards[shard]
		sh.mu.Lock()
		sh.queue(t).push(t)
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
			if t2.claimParked() {
				sh.queue(t2).push(t2)
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

// pass hands ticket id to the next queued goroutine, else to an idle
// stepping goroutine when steps are queued, or frees it when neither is
// waiting. The re-scan after freeing finds any task a ready pushed
// without seeing the free bit; if the ticket is claimed again in
// between, its new holder runs that task instead.
func (p *ticketPool) pass(id int) {
	for {
		if t := p.grab(id, false); t != nil {
			t.ticket = int32(id)
			t.resume()
			return
		}
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

// grab pops a task from shard id's goroutine queue (step queue, when
// steps), stealing from the others when it is empty.
func (p *ticketPool) grab(id int, steps bool) *task {
	n := len(p.shards)
	for i := 0; i < n; i++ {
		sh := &p.shards[(id+i)%n]
		sh.mu.Lock()
		var t *task
		if steps {
			t = sh.sq.pop()
		} else {
			t = sh.q.pop()
		}
		sh.mu.Unlock()
		if t != nil {
			return t
		}
	}
	return nil
}

// queued reports whether any shard holds a goroutine waiting for a
// ticket, or a step while an idle goroutine could run it.
func (p *ticketPool) queued() bool {
	idle := p.nidle.Load() > 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n := sh.q.n
		if idle {
			n += sh.sq.n
		}
		sh.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// Steps in pooled mode. A rank that enters Comm.Steps keeps its
// goroutine, but the goroutine no longer waits for its own rank: while
// it holds a ticket it is an executor, running whatever steps are queued
// — its own or any other rank's — each until it would wait, and parks
// only when no step is runnable or it hands its ticket to a queued
// goroutine. A waiting step costs a status CAS and a queue push instead
// of a goroutine park and resume. The goroutine leaves steps, holding a
// ticket, once its own rank's step is done, whoever ran it.
//
// A stepping goroutine is execActive (holding a ticket), execIdle
// (asleep in idle, no ticket) or execDone (its step finished; it takes
// the next ticket it gets back to its own body). Moves into and out of
// execIdle happen under idleMu, so a goroutine is woken once: by pass
// with a ticket for queued steps (wakeIdle), or through the goroutine
// queue when its step finishes while it sleeps (finish). No wakeup is
// lost, by the pool's two-sided rule: a goroutine going idle lists
// itself before freeing its ticket and re-scans after, and pass checks
// the idle list after finding no goroutine to run.

const (
	execActive = int32(iota)
	execIdle
	execDone
)

// steps runs the executor loop for t, the calling goroutine's own task,
// whose step is set and which holds t.ticket. It returns, holding
// t.ticket, once t's step is done.
func (p *ticketPool) steps(t *task) {
	id := int(t.ticket)
	p.run(t)
	for {
		if t.exec.Load() == execDone {
			t.ticket = int32(id)
			return
		}
		if s := p.grab(id, true); s != nil {
			p.run(s)
			continue
		}
		if !p.goIdle(t) {
			continue // the step finished after all: keep the ticket
		}
		if g := p.grab(id, false); g != nil {
			g.ticket = int32(id)
			g.resume()
		} else {
			atomicOr(&p.free, 1<<uint(id))
			if p.queued() && p.take(id) {
				if p.unidle(t) {
					continue
				}
				// Woken or finished meanwhile: a ticket is on its way.
				p.pass(id)
			}
		}
		t.block()
		id = int(t.ticket)
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
// is taken off the idle list and queued for a ticket.
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
		p.ready(s)
	}
}

// goIdle lists t's goroutine as idle, unless its step is already done.
func (p *ticketPool) goIdle(t *task) bool {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	if t.exec.Load() == execDone {
		return false
	}
	t.exec.Store(execIdle)
	t.idleAt = int32(len(p.idle))
	p.idle = append(p.idle, t)
	p.nidle.Add(1)
	return true
}

// unidle takes t's goroutine back off the idle list, reporting false if
// it has been woken or its step finished since it listed itself.
func (p *ticketPool) unidle(t *task) bool {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	if t.exec.Load() != execIdle {
		return false
	}
	p.unlist(t)
	t.exec.Store(execActive)
	return true
}

// wakeIdle claims an idle goroutine to run queued steps, or returns nil
// when there is none or no step is queued.
func (p *ticketPool) wakeIdle() *task {
	if p.nidle.Load() == 0 || !p.stepsQueued() {
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

// stepsQueued reports whether any shard has a step queued.
func (p *ticketPool) stepsQueued() bool {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n := sh.sq.n
		sh.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
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
