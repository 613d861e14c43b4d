package mpi

// Step forms. A blocking call that may wait on other ranks — a
// neighborhood exchange's pull, a collective's release — also exists as
// a step form, named with a Step suffix (BarrierStep,
// NeighborAlltoallvInt64Step, NbrRequest.WaitStep, ...). A step form
// does everything the blocking call does, in the same order and with the
// same charges, up to the point where it would wait; there it returns
// false with the rank suspended, and a later call with the same
// arguments resumes it where it stopped. The blocking call is the step
// form followed by Park until it reports true, so the two cannot drift.
//
// Steps runs a rank's program written over step forms. In a direct-mode
// world it is that loop. In a pooled world the rank's goroutine parks no
// more at each wait: the suspended step is queued when what it waits for
// happens, and whichever stepping goroutine holds a ticket runs it (see
// ticketPool.steps).

// Steps runs step, a resumable program of the calling rank, until it
// reports done. Each call of step runs the program until it completes
// (true) or until a step form reports false (false; the program must
// return at once, its state kept for the next call). Once a step form
// has reported false the rank may already be resuming on another
// goroutine, so the program must write nothing on its way out. A step
// may run on another rank's goroutine, so it must not call a blocking
// form; it may not call Steps either. A panic in step is raised by
// Steps.
func (c *Comm) Steps(step func() bool) {
	t := c.ps.task
	if t.step != nil {
		panic("mpi: Steps called inside a step")
	}
	t.step = step
	p := t.pool
	if p == nil {
		for !step() {
			t.block()
		}
		t.step = nil
		return
	}
	t.exec.Store(execActive)
	p.steps(t)
	if v, failed := p.fault(t); failed {
		panic(v)
	}
}

// Park blocks the calling rank after a step form reported false, until
// what the step form waits for may have happened; the caller then calls
// the step form again. It must not be called inside Steps, or at any
// other time.
func (c *Comm) Park() { c.ps.task.sleep() }
