package mpi

// PersistentNbr is a persistent neighborhood all-to-all-v schedule, the
// analogue of MPI-4's MPI_Neighbor_alltoallv_init: the exchange plan —
// peer set, tag layout, per-neighbor cost structure — is derived once
// from the topology when the operation is initialized, and every
// subsequent Start/WaitInto round reuses it. Rounds in this repository's
// drivers are isomorphic by construction (the same neighbors exchange
// every round, only volumes vary), which is exactly the case persistent
// collectives exist for: a Start pays only the reduced AlphaNbrStart
// doorbell instead of the full AlphaNbrCall schedule setup.
//
// Usage mirrors MPI persistent requests: Init once, then any number of
// Start/WaitInto pairs. Start while a round is in flight, or WaitInto
// without a Start, panic — the same misuse MPI defines as erroneous.
// Like the nonblocking form, receives are sized from the arriving
// chunks, modeling preposted maximum-size buffers (valid whenever the
// application can bound per-neighbor volume).
type PersistentNbr struct {
	t        *Topo
	seq      int64 // topo sequence of the in-flight round
	inflight bool
}

// NeighborAlltoallvInit prepares a persistent neighborhood all-to-all-v
// over the topology. The call is collective over the topology's members
// (every member must create the operation in the same order relative to
// other collectives on the same topo) and charges the one-time schedule
// setup; each Start then pays only AlphaNbrStart.
func (t *Topo) NeighborAlltoallvInit() *PersistentNbr {
	// The schedule derivation — the work AlphaNbrCall models per call —
	// is paid here, once.
	t.c.chargeComm(t.c.w.cost.AlphaNbrCall)
	return &PersistentNbr{t: t}
}

// Start begins one round of the persistent exchange: send[i] is
// delivered to neighbor i. The injection cost is charged at start;
// transit overlaps with whatever the caller does before WaitInto. The
// runtime copies payloads into its send box, so the caller may reuse
// send buffers immediately after Start returns.
func (p *PersistentNbr) Start(send [][]int64) {
	if p.inflight {
		panic("mpi: PersistentNbr.Start while a round is in flight")
	}
	p.seq = p.t.start("PersistentNbr.Start", p.t.c.w.cost.AlphaNbrStart, send)
	p.inflight = true
}

// WaitInto completes the in-flight round, returning the neighbors'
// contributions in neighbor order in a caller-supplied slice (allocated
// when nil) of views valid until this rank's next operation on the
// topology (see Topo.collect).
// Unlike a nonblocking request, the operation stays valid: the next
// Start reuses the same schedule.
func (p *PersistentNbr) WaitInto(recv [][]int64) [][]int64 {
	recv = p.t.recvInto("PersistentNbr.WaitInto", recv)
	for !p.WaitStep(recv) {
		p.t.c.Park()
	}
	return recv
}

// WaitStep is the step form of WaitInto (see Steps); recv must be
// supplied.
func (p *PersistentNbr) WaitStep(recv [][]int64) bool {
	if !p.inflight {
		panic("mpi: PersistentNbr.WaitInto without a started round")
	}
	p.t.recvInto("PersistentNbr.WaitInto", recv)
	if !p.t.wait(p.seq, recv) {
		return false
	}
	p.inflight = false
	return true
}
