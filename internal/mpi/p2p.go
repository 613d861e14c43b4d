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
	if tag > maxTag {
		panic(fmt.Sprintf("mpi: send with tag %d above the tag bound %d", tag, maxTag))
	}
	start := c.ps.now
	bytes := int64(8 * len(data))
	cost := c.w.cost
	c.chargeComm(cost.SendOverhead)
	if sync {
		c.chargeComm(cost.SyncSendRTT)
	}
	sent := c.ps.now
	arrive := sent + c.perturbLatency(cost.AlphaP2P+cost.BetaP2P*float64(bytes))
	c.ps.rs.noteSend(dst, bytes)
	c.event(EvSend, dst, tag, bytes, start)
	c.w.mailboxes[dst].push(c.rank, tag, c.ctx, sent, arrive, data)
}

// recvMsg blocks until a user-level message matching (src, tag) is
// queued, dequeues it and applies receive-side timing. The payload is
// copied into buf if it fits or, when fresh is set, into a new slice of
// its length, which is returned.
func (c *Comm) recvMsg(src, tag int, buf []int64, fresh bool) (entry, []int64) {
	if src != AnySource {
		c.checkRank(src, "recv")
	}
	mb, f := c.await("recv", func(mb *mailbox) found {
		return mb.match(src, tag, c.ctx, c.ps.now)
	})
	if fresh && f.e.n > 0 {
		buf = make([]int64, f.e.n)
	}
	e := mb.recvLocked(f, buf)
	mb.mu.Unlock()
	c.completeRecv(&e)
	return e, buf
}

// await parks the rank on its mailbox until match, called under the
// mailbox lock, finds a message, and returns with the lock still held
// and the message still queued. A poisoned mailbox aborts the wait with
// the peer-failure panic, naming the call what.
func (c *Comm) await(what string, match func(mb *mailbox) found) (*mailbox, found) {
	mb := c.mbox()
	mb.mu.Lock()
	for {
		if f := match(mb); f.e != nil {
			return mb, f
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
// caller indefinitely — it never aliases runtime-internal storage. Hot
// paths that cannot afford the allocation should use RecvInto instead.
func (c *Comm) Recv(src, tag int) ([]int64, Status) {
	start := c.ps.now
	e, out := c.recvMsg(src, tag, nil, true)
	if c.ps.ev != nil {
		c.record(EvRecv, WaitNone, int(e.src), int(e.tag), e.bytes(), start, e.arrive)
	}
	return out, Status{Source: int(e.src), Tag: int(e.tag), Count: len(out)}
}

// RecvInto is Recv receiving into a caller-supplied buffer, the analogue
// of MPI_Recv's preposted buffer: the payload is copied into buf and the
// word count returned. It is the allocation-free receive path: the
// payload is copied straight out of the mailbox's ring.
//
// Like MPI_Recv with a too-small buffer (MPI_ERR_TRUNCATE under
// MPI_ERRORS_ARE_FATAL), RecvInto panics if buf cannot hold the matched
// message; probe first when sizes are unknown.
func (c *Comm) RecvInto(src, tag int, buf []int64) (int, Status) {
	start := c.ps.now
	e, _ := c.recvMsg(src, tag, buf, false)
	return c.deliverInto(&e, len(buf), start)
}

// deliverInto finishes a receive into a buffer of room words that began
// at start: e was dequeued, its payload copied if it fit, and its
// receive-side timing applied.
func (c *Comm) deliverInto(e *entry, room int, start float64) (int, Status) {
	if c.ps.ev != nil {
		c.record(EvRecv, WaitNone, int(e.src), int(e.tag), e.bytes(), start, e.arrive)
	}
	n := int(e.n)
	if n > room {
		panic(fmt.Sprintf("mpi: RecvInto: message of %d words truncated by %d-word buffer", n, room))
	}
	return n, Status{Source: int(e.src), Tag: int(e.tag), Count: n}
}

// Iprobe checks, without blocking, whether a message matching (src, tag)
// is queued. It charges the probe overhead so that poll-heavy code (the
// Send-Recv matching driver) pays for its polling, as it does under MPI.
func (c *Comm) Iprobe(src, tag int) (bool, Status) {
	e, ok := c.iprobe(src, tag, nil, false)
	if !ok {
		return false, Status{}
	}
	return true, Status{Source: int(e.src), Tag: int(e.tag), Count: int(e.n)}
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
	e, ok := c.iprobe(src, tag, buf, true)
	if !ok {
		return false, Status{}
	}
	start := c.ps.now
	c.completeRecv(&e)
	_, st := c.deliverInto(&e, len(buf), start)
	return true, st
}

// iprobe is the nonblocking probe behind Iprobe and IprobeRecvInto: it
// returns the matched message's entry and whether there was one. When
// remove is set the message is dequeued, its payload copied into buf if
// it fits.
func (c *Comm) iprobe(src, tag int, buf []int64, remove bool) (entry, bool) {
	if src != AnySource {
		c.checkRank(src, "iprobe")
	}
	start := c.ps.now
	c.chargeComm(c.w.cost.ProbeOverhead)
	// Perturbation may legally force a nonblocking probe to miss — a
	// real MPI Iprobe can fail to observe a message whose envelope has
	// not yet been processed. Misses are bounded (sched.Rank.ForceMiss)
	// so polling loops keep making progress.
	var e entry
	hit := false
	if pt := c.ps.pert; pt == nil || !pt.ForceMiss() {
		mb := c.mbox()
		mb.mu.Lock()
		if f := mb.match(src, tag, c.ctx, c.ps.now); f.e != nil {
			hit = true
			if remove {
				e = mb.recvLocked(f, buf)
			} else {
				e = *f.e
			}
		}
		mb.mu.Unlock()
	}
	if !hit {
		c.event(EvProbe, -1, tag, 0, start)
		c.pollMiss()
		return e, false
	}
	c.ps.pollMisses = 0
	if c.ps.ev != nil {
		c.event(EvProbe, int(e.src), int(e.tag), e.bytes(), start)
	}
	return e, true
}

// Probe blocks until a message matching (src, tag) is queued and returns
// its status without receiving it.
func (c *Comm) Probe(src, tag int) Status {
	if src != AnySource {
		c.checkRank(src, "probe")
	}
	return c.probeWait("Probe", func(mb *mailbox) found {
		return mb.match(src, tag, c.ctx, c.ps.now)
	})
}

// probeWait is a blocking probe: one probe overhead, then the wait for a
// message match finds, left queued. Blocking probes are never forced to
// miss: a probe that has observed a message must return it, or a
// perturbed run could livelock where a real MPI run cannot. A stall on
// an in-flight message is a late-sender wait just like the receive that
// will follow it.
func (c *Comm) probeWait(what string, match func(mb *mailbox) found) Status {
	start := c.ps.now
	c.chargeComm(c.w.cost.ProbeOverhead)
	mb, f := c.await(what, match)
	e := *f.e
	mb.mu.Unlock()
	c.waitFor(e.arrive, WaitLateSender, int(e.src), e.sent)
	if c.ps.ev != nil {
		c.event(EvProbe, int(e.src), int(e.tag), e.bytes(), start)
	}
	return Status{Source: int(e.src), Tag: int(e.tag), Count: int(e.n)}
}

// completeRecv applies receive-side timing and accounting for e.
func (c *Comm) completeRecv(e *entry) {
	rs := c.ps.rs
	c.waitFor(e.arrive, WaitLateSender, int(e.src), e.sent)
	c.chargeComm(c.w.cost.RecvOverhead)
	rs.RecvCount++
	rs.RecvBytes += e.bytes()
}

// QueuedBytes returns the bytes currently occupying this rank's eager
// buffer: queued point-to-point messages (neighborhood collective chunks
// wait in their sender's box, not here). RankStats.QueueHighWater is the
// post-run maximum; this is the live value, which the round-telemetry
// layer samples at round boundaries.
func (c *Comm) QueuedBytes() int64 {
	return c.mbox().queuedBytes()
}
