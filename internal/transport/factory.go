package transport

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/mpi"
)

// Backend is the surface every transport exposes: record emission, the
// end-of-algorithm Finish and the volume ledger. Drivers downcast to
// Async or Round according to Model.Flavor — New guarantees the backend
// implements the interface its model's flavor promises.
type Backend interface {
	Sender
	// Finish releases or transmits whatever the backend still holds once
	// the algorithm decides termination (parked aggregation batches,
	// in-flight pipelined rounds). Safe to call on every backend.
	Finish()
	// VolumeByNeighbor returns the cumulative per-neighbor payload
	// ledger: element i is the total record bytes this rank has pushed
	// toward Local.NeighborRanks[i] through Send since the first
	// VolumeByNeighbor call, which allocates it (see ledger). The slice
	// is live backend state — the round-telemetry layer snapshots it once
	// per round; callers must not retain or modify it.
	VolumeByNeighbor() []int64
}

// DefaultAggBatch is the per-destination batch size, in records, of the
// aggregating Send-Recv backend (NSRA).
const DefaultAggBatch = 64

// Deps carries everything a backend construction might need. Comm and
// Local are always required: every backend sends only within
// Local.NeighborRanks and keys its volume ledger by them. The round
// models (NCL, RMA, NCLI, NCLC) additionally need MaxPerArc, and
// collectively create their topology from Local.NeighborRanks — legal
// because the model (and therefore the need for a topology) is uniform
// across ranks.
type Deps struct {
	// Comm is the rank's communicator.
	Comm *mpi.Comm
	// Local is the rank's partition view (neighbor ranks, cross-arc
	// counts).
	Local *distgraph.Local
	// MaxPerArc bounds protocol records per cross arc per direction;
	// buffered backends size overflow guards from it. Required (> 0) by
	// the round models.
	MaxPerArc int64
}

// New constructs the backend for a model. It is collective when the
// model needs a topology (CreateGraphTopo, and for RMA/NCLC their own
// collective setup). The returned Backend implements Async when
// m.Flavor() == FlavorAsync and Round when FlavorRound. Callers that
// construct round backends should release window resources with Release
// after Finish.
func New(m Model, d Deps) (Backend, error) {
	if d.Comm == nil {
		return nil, fmt.Errorf("transport: New(%v): nil Comm", m)
	}
	if d.Local == nil {
		return nil, fmt.Errorf("transport: New(%v): nil Local", m)
	}
	switch m {
	case ModelNSR:
		return NewP2P(d.Comm, d.Local, false), nil
	case ModelMBP:
		return NewP2P(d.Comm, d.Local, true), nil
	case ModelNSRA:
		return NewP2PAgg(d.Comm, d.Local, DefaultAggBatch), nil
	case ModelNCL, ModelRMA, ModelNCLI, ModelNCLC:
		if d.MaxPerArc <= 0 {
			return nil, fmt.Errorf("transport: New(%v): MaxPerArc = %d", m, d.MaxPerArc)
		}
		topo := d.Comm.CreateGraphTopo(d.Local.NeighborRanks)
		switch m {
		case ModelNCL:
			return NewNCL(d.Comm, topo, d.Local, d.MaxPerArc), nil
		case ModelRMA:
			return NewRMA(d.Comm, topo, d.Local, d.MaxPerArc), nil
		case ModelNCLI:
			return NewNCLI(d.Comm, topo, d.Local, d.MaxPerArc), nil
		default:
			return NewNCLC(d.Comm, topo, d.Local, d.MaxPerArc), nil
		}
	}
	return nil, fmt.Errorf("transport: unknown model %v", m)
}

// Release collectively frees backend resources that outlive Finish
// (the RMA window). A no-op for every other backend, so drivers call it
// unconditionally.
func Release(b Backend) {
	if f, ok := b.(interface{ Free() }); ok {
		f.Free()
	}
}

// The factory's flavor contract, checked at compile time.
var (
	_ Async = (*P2P)(nil)
	_ Async = (*P2PAgg)(nil)
	_ Round = (*NCL)(nil)
	_ Round = (*RMA)(nil)
	_ Round = (*NCLI)(nil)
	_ Round = (*NCLC)(nil)
)
