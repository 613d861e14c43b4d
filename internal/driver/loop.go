package driver

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/telemetry"
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
	// Record appends one telemetry row; log is nil when telemetry is off.
	Record(log *telemetry.RoundLog, vol []int64)
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
	k.Record(r.Log, r.Vol)
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
		k.Record(r.Log, r.Vol)
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
			k.Record(r.Log, r.Vol)
			continue
		}
		t.Finish()
		if r.Quiesce.Idle() {
			break
		}
		r.Quiesce.Block()
		r.Rounds++
	}
	k.Record(r.Log, r.Vol)
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
func (r *Rank) rounds(k Kernel, h transport.Handler) {
	for {
		exchange(r.Backend, h, r.fence)
		k.DrainWork()
		var done bool
		if r.detect {
			st := r.Comm.AllreduceInt64(mpi.OpSum, []int64{k.Pending(), k.(Detected).InFlight()})
			done = st[0] == 0 && st[1] == 0
		} else {
			done = r.Comm.AllreduceScalarInt64(mpi.OpSum, k.Pending()) == 0
		}
		r.Rounds++
		k.Record(r.Log, r.Vol)
		if done {
			return
		}
	}
}

// Pump moves records once and delivers what has arrived to h, without
// waiting for anyone: one exchange round, or over a point-to-point
// backend a flush (safe mid-protocol: P2P's Finish is a no-op and
// P2PAgg's sends its parked batches) and a nonblocking drain. It never
// blocks on arrivals — a rank with nothing arriving may owe nothing
// while others still exchange — so the caller's own reduction is the
// fence that keeps every rank pumping until delivery completes.
func Pump(bk transport.Backend, h transport.Handler) { exchange(bk, h, nil) }

// exchange performs one communication round on any backend. A
// point-to-point backend is adapted: flush, so every record of the round
// is on the wire; with a fence, a barrier, after which they are in their
// destination mailboxes; deliver.
func exchange(bk transport.Backend, h transport.Handler, fence *mpi.Comm) {
	a, p2p := bk.(transport.Async)
	if !p2p {
		bk.(transport.Round).Exchange(h)
		return
	}
	a.Finish()
	if fence != nil {
		fence.Barrier()
	}
	a.Drain(h)
}
