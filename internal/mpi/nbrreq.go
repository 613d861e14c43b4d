package mpi

// NbrRequest is an in-flight nonblocking neighborhood collective started
// with INeighborAlltoallvInt64 (the analogue of MPI_Ineighbor_alltoallv
// from MPI-3's nonblocking collectives). The caller may compute while the
// exchange progresses and must eventually call WaitInto exactly once.
//
// Real MPI requires receive counts when the operation is posted; the
// runtime sizes receives from the arriving chunks instead, which models
// an implementation with preposted maximum-size buffers — valid whenever
// the application can bound per-neighbor volume, as the matching protocol
// can (MaxMessagesPerCrossEdge).
type NbrRequest struct {
	t        *Topo
	seq      int64
	finished bool
}

// INeighborAlltoallvInt64 starts a nonblocking neighborhood all-to-all:
// send[i] is delivered to neighbor i. The injection cost is charged at
// start; transit overlaps with whatever the caller does before WaitInto.
func (t *Topo) INeighborAlltoallvInt64(send [][]int64) *NbrRequest {
	return &NbrRequest{t: t, seq: t.start("INeighborAlltoallvInt64", t.c.w.cost.AlphaNbrCall, send)}
}

// WaitInto blocks until every neighbor's contribution has arrived and
// returns them in neighbor order in a caller-supplied slice of Degree()
// entries (allocated when nil): read-only views valid until this rank's
// next operation on the topology (see Topo.collect). The caller's clock
// advances only to the latest arrival — time spent computing since the
// start overlaps the transfer, which is the point of the nonblocking
// form. The pipelined transport keeps one slice across rounds so
// steady-state completion allocates nothing.
func (r *NbrRequest) WaitInto(recv [][]int64) [][]int64 {
	recv = r.t.recvInto("NbrRequest.WaitInto", recv)
	for !r.WaitStep(recv) {
		r.t.c.Park()
	}
	return recv
}

// WaitStep is the step form of WaitInto (see Steps); recv must be
// supplied.
func (r *NbrRequest) WaitStep(recv [][]int64) bool {
	if r.finished {
		panic("mpi: NbrRequest.WaitInto called twice")
	}
	r.t.recvInto("NbrRequest.WaitInto", recv)
	if !r.t.wait(r.seq, recv) {
		return false
	}
	r.finished = true
	return true
}
