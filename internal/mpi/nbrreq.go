package mpi

// NbrRequest is an in-flight nonblocking neighborhood collective started
// with INeighborAlltoallvInt64 (the analogue of MPI_Ineighbor_alltoallv
// from MPI-3's nonblocking collectives). The caller may compute while the
// exchange progresses and must eventually call Wait (or poll Test until
// completion) exactly once.
//
// Real MPI requires receive counts when the operation is posted; the
// runtime sizes receives from the arriving messages instead, which models
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
// start; transit overlaps with whatever the caller does before Wait.
func (t *Topo) INeighborAlltoallvInt64(send [][]int64) *NbrRequest {
	return &NbrRequest{t: t, seq: t.start("INeighborAlltoallvInt64", t.c.w.cost.AlphaNbrCall, send)}
}

// Wait blocks until every neighbor's contribution has arrived and
// returns them in neighbor order. The caller's clock advances only to
// the latest arrival — time spent computing since the start overlaps the
// transfer, which is the point of the nonblocking form.
func (r *NbrRequest) Wait() [][]int64 {
	return r.WaitInto(nil)
}

// WaitInto is Wait receiving into a caller-supplied slice of per-neighbor
// buffers (see Topo.collect). The pipelined transport keeps one receive
// set across rounds so steady-state completion allocates nothing.
func (r *NbrRequest) WaitInto(recv [][]int64) [][]int64 {
	if r.finished {
		panic("mpi: NbrRequest.Wait called twice")
	}
	r.finished = true
	return r.t.wait("NbrRequest.WaitInto", r.seq, recv)
}

// Test reports whether the exchange has completed without blocking; when
// it has, the received contributions are returned and the request is
// finished (as MPI_Test frees the request). A small probe cost is
// charged per poll.
func (r *NbrRequest) Test() ([][]int64, bool) {
	if r.finished {
		panic("mpi: NbrRequest.Test called after completion")
	}
	c := r.t.c
	start := c.ps.now
	c.chargeComm(c.w.cost.ProbeOverhead)
	// Like Iprobe, a nonblocking completion test may legally miss even
	// when everything has arrived; bounded, so Test/Wait loops progress.
	if pt := c.ps.pert; pt != nil && pt.ForceMiss() {
		c.event(EvProbe, -1, int(r.seq), 0, start)
		c.pollMiss()
		return nil, false
	}
	mb := c.mbox()
	mb.mu.Lock()
	for _, nb := range r.t.neighbors {
		if mb.matchInternalLocked(nb, r.t.itag(r.seq), false) == nil {
			mb.mu.Unlock()
			c.event(EvProbe, -1, int(r.seq), 0, start)
			c.pollMiss()
			return nil, false
		}
	}
	mb.mu.Unlock()
	c.ps.pollMisses = 0
	return r.Wait(), true
}
