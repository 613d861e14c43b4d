package mpi

// NbrRequest is a split-phase neighborhood all-to-all-v, in one of the
// two forms MPI defines. INeighborAlltoallvInt64 starts a nonblocking
// one (MPI-3's MPI_Ineighbor_alltoallv): the caller may compute while
// the exchange progresses and completes it with one WaitInto.
// NeighborAlltoallvInit creates a persistent one (MPI-4's
// MPI_Neighbor_alltoallv_init): the exchange plan — peer set, tag
// layout, per-neighbor cost structure — is derived once, and any number
// of Start/WaitInto rounds reuse it. Rounds in this repository's
// drivers are isomorphic by construction (the same neighbors exchange
// every round, only volumes vary), which is exactly the case persistent
// collectives exist for. The two forms differ only in what a start
// costs: the full AlphaNbrCall schedule setup for a nonblocking call,
// the reduced AlphaNbrStart doorbell for a persistent Start, whose
// setup its Init paid.
//
// Start on a nonblocking request or while a round is in flight, and
// WaitInto without a round in flight, panic — the misuse MPI defines as
// erroneous. Real MPI requires receive counts when the operation is
// posted; the runtime sizes receives from the arriving chunks instead,
// which models an implementation with preposted maximum-size buffers —
// valid whenever the application can bound per-neighbor volume, as the
// matching protocol can (MaxMessagesPerCrossEdge).
type NbrRequest struct {
	t          *Topo
	seq        int64 // topo sequence of the in-flight round
	inflight   bool
	persistent bool
}

// INeighborAlltoallvInt64 starts a nonblocking neighborhood all-to-all:
// send[i] is delivered to neighbor i. The injection cost is charged at
// start; transit overlaps with whatever the caller does before WaitInto.
func (t *Topo) INeighborAlltoallvInt64(send [][]int64) *NbrRequest {
	r := &NbrRequest{t: t}
	r.start("INeighborAlltoallvInt64", t.c.w.cost.AlphaNbrCall, send)
	return r
}

// NeighborAlltoallvInit prepares a persistent neighborhood all-to-all-v
// over the topology. The call is collective over the topology's members
// (every member must create the operation in the same order relative to
// other collectives on the same topo) and charges the one-time schedule
// setup — the work AlphaNbrCall models per call — here, once; each Start
// then pays only AlphaNbrStart.
func (t *Topo) NeighborAlltoallvInit() *NbrRequest {
	t.c.chargeComm(t.c.w.cost.AlphaNbrCall)
	return &NbrRequest{t: t, persistent: true}
}

// Start begins one round of a persistent exchange: send[i] is delivered
// to neighbor i. The runtime copies payloads into its send box, so the
// caller may reuse send buffers immediately after Start returns.
func (r *NbrRequest) Start(send [][]int64) {
	if !r.persistent {
		panic("mpi: NbrRequest.Start on a nonblocking request")
	}
	if r.inflight {
		panic("mpi: NbrRequest.Start while a round is in flight")
	}
	r.start("NbrRequest.Start", r.t.c.w.cost.AlphaNbrStart, send)
}

// start is the send half of both forms plus EvNbrStart.
func (r *NbrRequest) start(op string, callCost float64, send [][]int64) {
	t := r.t
	from := t.c.ps.now
	seq, sent := t.post(op, callCost, send)
	t.c.event(EvNbrStart, -1, int(seq), sent, from)
	r.seq, r.inflight = seq, true
}

// WaitInto blocks until every neighbor's contribution to the round in
// flight has arrived and returns them in neighbor order in a
// caller-supplied slice of Degree() entries (allocated when nil):
// read-only views valid until this rank's next operation on the
// topology (see Topo.collect). The caller's clock advances only to the
// latest arrival — time spent computing since the start overlaps the
// transfer, which is the point of the split-phase forms. The pipelined
// transport keeps one slice across rounds so steady-state completion
// allocates nothing. A persistent request stays valid: the next Start
// reuses its schedule.
func (r *NbrRequest) WaitInto(recv [][]int64) [][]int64 {
	recv = r.t.recvInto("NbrRequest.WaitInto", recv)
	for !r.WaitStep(recv) {
		r.t.c.Park()
	}
	return recv
}

// WaitStep is the step form of WaitInto (see Steps); recv must be
// supplied. It is the receive half plus EvNbrWait.
func (r *NbrRequest) WaitStep(recv [][]int64) bool {
	if !r.inflight {
		panic("mpi: NbrRequest.WaitInto without a started round")
	}
	t := r.t
	t.recvInto("NbrRequest.WaitInto", recv)
	if !t.rx.live {
		t.open(r.seq, t.c.ps.now, 0)
	} else if t.rx.seq != r.seq {
		panic("mpi: neighborhood wait resumed on another call")
	}
	if !t.collect(recv) {
		return false
	}
	t.rx.live = false
	t.c.event(EvNbrWait, -1, int(r.seq), t.rx.got, t.rx.from)
	r.inflight = false
	return true
}
