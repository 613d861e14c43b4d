package mpi

import (
	"time"

	"repro/internal/sched"
)

// Option configures a run. Options are applied in order to a zero
// Config whose Procs is set by Run, so later options win. The
// functional-options form is the run API: Run(procs, body, opts...).
type Option func(*Config)

// WithCost selects the virtual-time cost model (nil keeps the default).
func WithCost(m *CostModel) Option {
	return func(cfg *Config) { cfg.Cost = m }
}

// WithMatrices enables per-pair message/byte matrices (O(P^2) memory).
func WithMatrices() Option {
	return func(cfg *Config) { cfg.TrackMatrices = true }
}

// WithDeadline arms the wall-clock deadlock watchdog (see
// Config.Deadline). Zero disables it.
func WithDeadline(d time.Duration) Option {
	return func(cfg *Config) { cfg.Deadline = d }
}

// WithEventTrace enables structured event tracing with a per-rank log
// of the given capacity (see Config.TraceEvents); capacity <= 0 leaves
// tracing off.
func WithEventTrace(capacity int) Option {
	return func(cfg *Config) { cfg.TraceEvents = capacity }
}

// WithPerturb runs under seeded schedule perturbation: the runtime
// varies its legal reordering points (wildcard selection among
// concurrently available messages, per-message latency and per-rank
// slowdown before arrival stamping, forced nonblocking-probe misses)
// according to the profile, drawing every decision from per-rank PRNG
// streams derived from seed. Per-(source, communicator) FIFO delivery —
// the only order MPI actually guarantees — is preserved. A disabled
// profile leaves the runtime on its deterministic
// earliest-virtual-arrival schedule with no overhead beyond a nil
// check. See package sched and DESIGN §4.
func WithPerturb(seed uint64, p sched.Profile) Option {
	return func(cfg *Config) { cfg.PerturbSeed, cfg.Perturb = seed, p }
}

// WithScheduler selects how ranks' steps are executed (see SchedMode).
// The default SchedAuto runs them on the sharded ticket pool in large
// worlds and on each rank's own goroutine in small ones; results are
// bit-identical either way, so the choice is purely a wall-clock/memory
// trade.
func WithScheduler(m SchedMode) Option {
	return func(cfg *Config) { cfg.Sched = m }
}
