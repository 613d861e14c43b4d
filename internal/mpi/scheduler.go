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
	q  taskq
	// pad keeps neighboring shards' locks off one cache line.
	_ [40]byte
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
//     goroutines (park before its running->parked CAS, yieldNow before
//     it queues itself). After that, a passer may resume the task and
//     overwrite the id.
//
// No wakeup is lost, by the usual two-sided protocol: ready pushes the
// task and then claims a free ticket, while pass frees its ticket and
// then re-scans every shard. Whichever side comes second sees the other.
type ticketPool struct {
	shards []schedShard
	free   atomic.Uint64 // bit i set: ticket i is free
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
	sh.q.push(t)
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
			if t2.claimParked() {
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

// pass hands ticket id to the next queued task, or frees it when
// nothing is queued. The re-scan after freeing finds any task a ready
// pushed without seeing the free bit; if the ticket is claimed again in
// between, its new holder runs that task instead.
func (p *ticketPool) pass(id int) {
	for {
		if t := p.grab(id); t != nil {
			t.ticket = int32(id)
			t.resume()
			return
		}
		atomicOr(&p.free, 1<<uint(id))
		if !p.queued() || !p.take(id) {
			return
		}
	}
}

// grab pops a task from shard id, stealing from the others when it is
// empty.
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

// queued reports whether any shard holds a task.
func (p *ticketPool) queued() bool {
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
