package mpi

// Phase profiling: the §V-D MPI-time analysis of the paper (Table VIII)
// splits each rank's execution into protocol compute, buffer
// pack/unpack, active communication and blocked waiting. The runtime
// already books these categories in RankStats; PhaseProfile folds them
// into one comparable breakdown per rank or per run.

// PhaseProfile is a virtual-time breakdown of one rank (or, summed, a
// whole run), in seconds. The field order and JSON tags are the run
// record's profile schema.
type PhaseProfile struct {
	// Compute is protocol computation charged via Comm.Compute.
	Compute float64 `json:"compute"`
	// Pack and Unpack are aggregation-buffer fill/parse CPU time
	// (Comm.Pack / Comm.Unpack); zero for non-aggregating transports.
	Pack float64 `json:"pack"`
	// Exchange is active communication-call time: overheads, probes and
	// injection costs, excluding blocked time.
	Exchange float64 `json:"exchange"`
	Unpack   float64 `json:"unpack"`
	// Wait is time blocked for remote progress (message arrivals,
	// collective synchronization, flush completion of peers).
	Wait float64 `json:"wait"`
}

func profileOf(rs *RankStats) PhaseProfile {
	return PhaseProfile{
		Compute:  rs.CompTime,
		Pack:     rs.PackTime,
		Unpack:   rs.UnpackTime,
		Exchange: rs.CommTime - rs.WaitTime,
		Wait:     rs.WaitTime,
	}
}

// Total returns the accounted virtual time across all phases.
func (p PhaseProfile) Total() float64 {
	return p.Compute + p.Pack + p.Unpack + p.Exchange + p.Wait
}

// MPITime returns time inside the runtime: everything but Compute
// (pack/unpack happen in MPI datatype/buffer machinery on a real
// system, which is how TAU attributes them).
func (p PhaseProfile) MPITime() float64 {
	return p.Pack + p.Unpack + p.Exchange + p.Wait
}

// MPIFrac returns MPITime as a fraction of Total (0 when empty) — the
// paper's Table VIII "MPI %" column.
func (p PhaseProfile) MPIFrac() float64 {
	t := p.Total()
	if t <= 0 {
		return 0
	}
	return p.MPITime() / t
}

// WaitFrac returns Wait as a fraction of Total (0 when empty).
func (p PhaseProfile) WaitFrac() float64 {
	t := p.Total()
	if t <= 0 {
		return 0
	}
	return p.Wait / t
}

// Add returns the element-wise sum of two profiles.
func (p PhaseProfile) Add(q PhaseProfile) PhaseProfile {
	return PhaseProfile{
		Compute:  p.Compute + q.Compute,
		Pack:     p.Pack + q.Pack,
		Unpack:   p.Unpack + q.Unpack,
		Exchange: p.Exchange + q.Exchange,
		Wait:     p.Wait + q.Wait,
	}
}

// RankProfile returns the phase breakdown of one rank.
func (r *Report) RankProfile(rank int) PhaseProfile {
	return profileOf(r.Stats[rank])
}

// Profile returns the phase breakdown summed over all ranks.
func (r *Report) Profile() PhaseProfile {
	var p PhaseProfile
	for _, rs := range r.Stats {
		p = p.Add(profileOf(rs))
	}
	return p
}
