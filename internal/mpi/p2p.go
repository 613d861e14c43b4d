package mpi

import (
	"fmt"
	"runtime"
)

// Status describes a received or probed message, like MPI_Status.
type Status struct {
	Source int
	Tag    int
	Count  int // number of int64 words in the payload
}

// poison unblocks every rank in the world after a failure so the run can
// unwind instead of deadlocking. All poisoned flags — the collective
// hub's and every mailbox's — are raised first, and only then is every
// task unparked once. The flag-before-wake order means a rank that is
// about to park re-checks its predicate under the relevant lock (or
// atomic) and sees the flag, so no rank can sleep through the teardown;
// a wakeup landing on a healthy running rank just banks a notification
// its next park consumes harmlessly.
func (w *World) poison() {
	w.hub.poison()
	for _, mb := range w.mailboxes {
		mb.poison()
	}
	for _, t := range w.tasks {
		t.unpark()
	}
}

// pollYieldEvery bounds how long a non-blocking poll loop (Iprobe) may
// spin without yielding the Go scheduler, so that a poller does not burn
// the rest of its time slice while the ranks whose sends it polls for
// wait for a CPU.
const pollYieldEvery = 64

// pollMiss records an unfruitful non-blocking poll, periodically
// yielding the scheduler.
func (c *Comm) pollMiss() {
	c.ps.pollMisses++
	if c.ps.pollMisses%pollYieldEvery == 0 {
		yieldNow()
	}
}

// yieldNow gives other goroutines a turn. It stays out of line so that
// pollMiss inlines into every Iprobe miss.
//
//go:noinline
func yieldNow() { runtime.Gosched() }

// Isend posts a nonblocking standard-mode send of data to rank dst with
// the given tag (tag must be >= 0). The payload is copied, so the caller
// may immediately reuse data — this mirrors MPI eager-protocol semantics,
// under which small sends complete locally and the message is buffered at
// the receiver. The sender is charged only its software send overhead.
func (c *Comm) Isend(dst, tag int, data []int64) {
	c.send(dst, tag, data, false)
}

// Ssend is a synchronous-mode send: functionally identical to Isend, but
// the sender is additionally charged a rendezvous round trip
// (CostModel.SyncSendRTT). The MatchBox-P baseline model uses this.
func (c *Comm) Ssend(dst, tag int, data []int64) {
	c.send(dst, tag, data, true)
}

func (c *Comm) send(dst, tag int, data []int64, sync bool) {
	c.checkRank(dst, "send")
	if tag < 0 {
		panic(fmt.Sprintf("mpi: send with negative tag %d (tags < 0 are reserved)", tag))
	}
	start := c.ps.now
	m := newMessage(c.rank, tag, c.ctx, data)
	cost := c.w.cost
	c.chargeComm(cost.SendOverhead)
	if sync {
		c.chargeComm(cost.SyncSendRTT)
	}
	m.sent = c.ps.now
	m.arrive = c.ps.now + c.perturbLatency(cost.AlphaP2P+cost.BetaP2P*float64(m.bytes))
	c.ps.rs.noteSend(dst, m.bytes)
	c.event(EvSend, dst, tag, m.bytes, start)
	c.w.mailboxes[dst].push(m)
}

// recvMsg blocks until a user-level message matching (src, tag) is
// queued, dequeues it and applies receive-side timing. The returned
// message is owned by the caller, which must release it after copying
// the payload out.
func (c *Comm) recvMsg(src, tag int, what string) *message {
	if src != AnySource {
		c.checkRank(src, what)
	}
	m := c.await(what, func(mb *mailbox) *message {
		return mb.matchUserLocked(src, tag, c.ctx, true, c.ps.now)
	})
	c.completeRecv(m)
	return m
}

// await parks the rank on its mailbox until match, called under the
// mailbox lock, finds a message, and returns that message. A poisoned
// mailbox aborts the wait with the peer-failure panic, naming the call
// what.
func (c *Comm) await(what string, match func(mb *mailbox) *message) *message {
	mb := c.mbox()
	mb.mu.Lock()
	for {
		if m := match(mb); m != nil {
			mb.mu.Unlock()
			return m
		}
		if mb.poisoned {
			mb.mu.Unlock()
			panic("mpi: " + what + " aborted: a peer rank failed")
		}
		mb.parkLocked(c.ps.task)
	}
}

// Recv blocks until a message matching (src, tag) is available and returns
// its payload. src may be AnySource and tag may be AnyTag. The receiver's
// clock advances to at least the message's arrival time.
//
// Ownership: the returned slice is freshly allocated and owned by the
// caller indefinitely — it never aliases runtime-internal (pooled)
// storage. Hot paths that cannot afford the allocation should use
// RecvInto instead.
func (c *Comm) Recv(src, tag int) ([]int64, Status) {
	start := c.ps.now
	m := c.recvMsg(src, tag, "recv")
	if c.ps.ev != nil {
		c.event(EvRecv, m.src, m.tag, m.bytes, start)
	}
	out := append([]int64(nil), m.data...)
	st := Status{Source: m.src, Tag: m.tag, Count: len(out)}
	m.release()
	return out, st
}

// RecvInto is Recv receiving into a caller-supplied buffer, the analogue
// of MPI_Recv's preposted buffer: the payload is copied into buf and the
// word count returned. It is the allocation-free receive path — the
// runtime recycles its internal message storage immediately.
//
// Like MPI_Recv with a too-small buffer (MPI_ERR_TRUNCATE under
// MPI_ERRORS_ARE_FATAL), RecvInto panics if buf cannot hold the matched
// message; probe first when sizes are unknown.
func (c *Comm) RecvInto(src, tag int, buf []int64) (int, Status) {
	start := c.ps.now
	return c.deliverInto(c.recvMsg(src, tag, "recv"), buf, start)
}

// deliverInto finishes a receive into buf that began at start: m is
// dequeued and its receive-side timing applied.
func (c *Comm) deliverInto(m *message, buf []int64, start float64) (int, Status) {
	if c.ps.ev != nil {
		c.event(EvRecv, m.src, m.tag, m.bytes, start)
	}
	if len(m.data) > len(buf) {
		defer m.release()
		panic(fmt.Sprintf("mpi: RecvInto: message of %d words truncated by %d-word buffer", len(m.data), len(buf)))
	}
	n := copy(buf, m.data)
	st := Status{Source: m.src, Tag: m.tag, Count: n}
	m.release()
	return n, st
}

// Iprobe checks, without blocking, whether a message matching (src, tag)
// is queued. It charges the probe overhead so that poll-heavy code (the
// Send-Recv matching driver) pays for its polling, as it does under MPI.
func (c *Comm) Iprobe(src, tag int) (bool, Status) {
	m := c.iprobe(src, tag, false)
	if m == nil {
		return false, Status{}
	}
	return true, Status{Source: m.src, Tag: m.tag, Count: len(m.data)}
}

// IprobeRecvInto is the matched nonblocking probe-and-receive, MPI-3's
// MPI_Improbe followed by MPI_Mrecv: when a message matching (src, tag)
// is queued it is received into buf and its Status returned. In virtual
// time, events, ledger and perturbation draws it is exactly Iprobe
// followed, on a hit, by RecvInto of the probed (source, tag); on the
// host the message is matched once, under one hold of the mailbox lock,
// instead of being found a second time by the receive. Like RecvInto it
// panics if buf cannot hold the message.
func (c *Comm) IprobeRecvInto(src, tag int, buf []int64) (bool, Status) {
	m := c.iprobe(src, tag, true)
	if m == nil {
		return false, Status{}
	}
	start := c.ps.now
	c.completeRecv(m)
	_, st := c.deliverInto(m, buf, start)
	return true, st
}

// iprobe is the nonblocking probe behind Iprobe and IprobeRecvInto: it
// returns the matched message, dequeued (and then owned by the caller)
// when remove is set, or nil on a miss.
func (c *Comm) iprobe(src, tag int, remove bool) *message {
	if src != AnySource {
		c.checkRank(src, "iprobe")
	}
	start := c.ps.now
	c.chargeComm(c.w.cost.ProbeOverhead)
	// Perturbation may legally force a nonblocking probe to miss — a
	// real MPI Iprobe can fail to observe a message whose envelope has
	// not yet been processed. Misses are bounded (sched.Rank.ForceMiss)
	// so polling loops keep making progress.
	var m *message
	if pt := c.ps.pert; pt == nil || !pt.ForceMiss() {
		mb := c.mbox()
		mb.mu.Lock()
		m = mb.matchUserLocked(src, tag, c.ctx, remove, c.ps.now)
		mb.mu.Unlock()
	}
	if m == nil {
		c.event(EvProbe, -1, tag, 0, start)
		c.pollMiss()
		return nil
	}
	c.ps.pollMisses = 0
	if c.ps.ev != nil {
		c.event(EvProbe, m.src, m.tag, m.bytes, start)
	}
	return m
}

// Probe blocks until a message matching (src, tag) is queued and returns
// its status without receiving it.
func (c *Comm) Probe(src, tag int) Status {
	if src != AnySource {
		c.checkRank(src, "probe")
	}
	return c.probeWait("Probe", func(mb *mailbox) *message {
		return mb.matchUserLocked(src, tag, c.ctx, false, c.ps.now)
	})
}

// probeWait is a blocking probe: one probe overhead, then the wait for a
// message match finds, left queued. Blocking probes are never forced to
// miss: a probe that has observed a message must return it, or a
// perturbed run could livelock where a real MPI run cannot. A stall on
// an in-flight message is a late-sender wait just like the receive that
// will follow it.
func (c *Comm) probeWait(what string, match func(mb *mailbox) *message) Status {
	start := c.ps.now
	c.chargeComm(c.w.cost.ProbeOverhead)
	m := c.await(what, match)
	c.waitFor(m.arrive, WaitLateSender, m.src, m.sent)
	if c.ps.ev != nil {
		c.event(EvProbe, m.src, m.tag, m.bytes, start)
	}
	return Status{Source: m.src, Tag: m.tag, Count: len(m.data)}
}

// completeRecv applies receive-side timing and accounting for m.
func (c *Comm) completeRecv(m *message) {
	rs := c.ps.rs
	c.waitFor(m.arrive, WaitLateSender, m.src, m.sent)
	c.chargeComm(c.w.cost.RecvOverhead)
	rs.RecvCount++
	rs.RecvBytes += m.bytes
}

// QueuedBytes returns the bytes currently occupying this rank's eager
// buffer: queued point-to-point messages (neighborhood collective chunks
// wait in their sender's box, not here). RankStats.QueueHighWater is the
// post-run maximum; this is the live value, which the round-telemetry
// layer samples at round boundaries.
func (c *Comm) QueuedBytes() int64 {
	return c.mbox().queuedBytes()
}
