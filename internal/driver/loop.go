package driver

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/transport"
)

// Kernel is one rank's protocol state machine as the loops see it. The
// loops feed it received records through the handler passed beside it
// (bound by the caller on the concrete type, so the per-record call
// stays direct) and run its local work between communication steps.
type Kernel interface {
	// Start runs the first phase, before any record has arrived.
	Start()
	// DrainWork runs the local work that handled records queued, to
	// exhaustion.
	DrainWork()
	// Pending is the rank's count of unfinished work items. A counted
	// protocol is over when it is zero (on this rank for the poll loop,
	// summed over ranks for the round loop).
	Pending() int64
	// Row is the kernel's half of a telemetry row (Rank.Record): its
	// unfinished work items, finished ones, and cumulative per-kind
	// protocol send counters.
	Row() (unresolved, done, req, rej, inv int64)
}

// Detected is the Kernel of a Protocol.Detect run: its Pending cannot
// see records still on their way to the rank, so the round loop sums a
// second count.
type Detected interface {
	Kernel
	// InFlight is the rank's records pushed minus records handled.
	InFlight() int64
}

// Loop runs k to termination over the rank's backend: barrier-free with
// a local count or with the detector over a point-to-point backend,
// otherwise in exchange rounds closed by a counting allreduce. Row 0 of
// the telemetry log is the state after Start; one row follows per
// iteration. h is k's record handler.
func (r *Rank) Loop(k Kernel, h transport.Handler) {
	k.Start()
	r.Record(k.Row())
	a, p2p := r.Backend.(transport.Async)
	switch {
	case r.Quiesce != nil:
		r.pollDetected(k, h, a)
	case p2p && r.fence == nil:
		r.pollCounted(k, h, a)
	default:
		r.rounds(k, h)
	}
	r.Backend.Finish()
}

// pollCounted is the Send-Recv loop (paper Algorithms 1 and 3): handle
// arrivals and local work until this rank's count reaches zero. As the
// paper notes (§V-D), the point-to-point variant needs no global
// reduction — a rank with nothing pending owes nothing to anyone. Peers
// may still depend on records parked in aggregation buffers; Loop's
// Finish sends them.
func (r *Rank) pollCounted(k Kernel, h transport.Handler, t transport.Async) {
	for k.Pending() > 0 {
		progressed := t.Drain(h)
		k.DrainWork()
		r.Record(k.Row())
		if k.Pending() == 0 {
			return
		}
		if !progressed {
			t.Block()
		}
		r.Rounds++
	}
}

// pollDetected is the barrier-free loop for a detected protocol: handle
// arrivals and local work; when both run dry, flush anything parked in
// aggregation batches (peers depend on it, and the detector has already
// counted it), give the detector a turn, and park until application or
// detector traffic shows up. No collective appears anywhere on the path.
func (r *Rank) pollDetected(k Kernel, h transport.Handler, t transport.Async) {
	for {
		progressed := t.Drain(h)
		k.DrainWork()
		if progressed {
			r.Rounds++
			r.Record(k.Row())
			continue
		}
		t.Finish()
		if r.Quiesce.Idle() {
			break
		}
		r.Quiesce.Block()
		r.Rounds++
	}
	r.Record(k.Row())
	if n := k.Pending(); n != 0 {
		panic(fmt.Sprintf("%T: rank %d: quiescence detected with %d work items pending (false termination)", k, r.Comm.Rank(), n))
	}
}

// rounds is the bulk-synchronous loop: rounds of (exchange, handle,
// local work) with a global reduction deciding termination — the extra
// collective the paper identifies as the cost of uncoordinated exits
// (§V-D). A counted protocol sums Pending alone; a detected one also
// sums the send/receive imbalance, which covers pipelined backends that
// hold records a round in flight.
//
// The loop runs as a resumable step (mpi.Comm.Steps) over the step forms
// of the exchange and the reduction: it stops wherever it would wait — a
// neighbor's chunk, a fence, the reduction — and resumes there, so in a
// pooled world no rank's goroutine parks at any of them.
func (r *Rank) rounds(k Kernel, h transport.Handler) {
	r.loop = roundLoop{r: r, k: k, h: h}
	r.Comm.Steps(r.loop.step)
}

// roundLoop is the state rounds keeps across its waits.
type roundLoop struct {
	r *Rank
	k Kernel
	h transport.Handler
	// reducing: the round's exchange and local work are done and its
	// reduction is under way. fenced: over a point-to-point backend, the
	// round's flush is done and its fence under way.
	reducing, fenced bool
	st               [2]int64
}

func (s *roundLoop) step() bool {
	r, k := s.r, s.k
	for {
		if !s.reducing {
			if !s.exchange() {
				return false
			}
			k.DrainWork()
			s.reducing = true
		}
		var done bool
		if r.detect {
			s.st[0], s.st[1] = k.Pending(), k.(Detected).InFlight()
			st, ok := r.Comm.AllreduceInt64Step(mpi.OpSum, s.st[:], s.st[:])
			if !ok {
				return false
			}
			done = st[0] == 0 && st[1] == 0
		} else {
			total, ok := r.Comm.AllreduceScalarInt64Step(mpi.OpSum, k.Pending())
			if !ok {
				return false
			}
			done = total == 0
		}
		s.reducing = false
		r.Rounds++
		r.Record(k.Row())
		if done {
			return true
		}
	}
}

// exchange is one communication round's step. A point-to-point backend
// is adapted: flush, so every record of the round is on the wire; with
// a fence, a barrier, after which they are in their destination
// mailboxes; deliver.
func (s *roundLoop) exchange() bool {
	a, p2p := s.r.Backend.(transport.Async)
	if !p2p {
		_, ok := s.r.Backend.(transport.Round).ExchangeStep(s.h)
		return ok
	}
	if !s.fenced {
		a.Finish()
		s.fenced = true
	}
	if s.r.fence != nil && !s.r.fence.BarrierStep() {
		return false
	}
	s.fenced = false
	a.Drain(s.h)
	return true
}

// Pump moves records once and delivers what has arrived to h, without
// waiting for anyone: one exchange round, or over a point-to-point
// backend a flush (safe mid-protocol: P2P's Finish is a no-op and
// P2PAgg's sends its parked batches) and a nonblocking drain. It never
// blocks on arrivals — a rank with nothing arriving may owe nothing
// while others still exchange — so the caller's own reduction is the
// fence that keeps every rank pumping until delivery completes.
func Pump(bk transport.Backend, h transport.Handler) {
	if a, p2p := bk.(transport.Async); p2p {
		a.Finish()
		a.Drain(h)
		return
	}
	bk.(transport.Round).Exchange(h)
}
