// Package sched is a seeded schedule-perturbation engine for the mpi
// runtime. MPI guarantees only per-(source, communicator) non-overtaking
// delivery; everything else — which of several concurrently available
// messages an AnySource receive matches, whether a nonblocking probe
// observes a message that is "almost" there, how long each message
// spends in flight, how fast each rank runs — is legal for an
// implementation to vary. The runtime's default schedule is the
// deterministic earliest-virtual-arrival order, which is exactly one
// point in that legal space; protocols can hide order-dependence bugs
// behind it.
//
// A Profile enables classes of perturbation; New derives one
// deterministic PRNG stream per rank from a seed, and the runtime
// consults the per-rank stream at its three legal reordering points
// (mpi.WithPerturb threads it through):
//
//   - wildcard selection: permute AnySource matching among bucket
//     fronts whose arrivals overlap (per-source FIFO still holds),
//   - arrival stamping: per-message latency jitter and a fixed
//     per-rank slowdown factor applied before virtual-arrival stamps,
//   - probe timing: forced Iprobe/Test misses with a bounded retry
//     budget so poll loops exercise their miss paths.
//
// Explore runs a protocol body under many seeds, checks that results
// and run-invariants are schedule-independent, and shrinks any failure
// to a minimal replayable reproduction. The package depends only on the
// leaf PRNG package (repro/internal/rng), so every layer (including the
// runtime itself) may depend on it.
package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Profile selects which classes of legal schedule perturbation are
// active. The zero value disables everything (and the runtime's
// fast paths stay allocation-free and branch-predictable).
type Profile struct {
	// Jitter is the maximum relative latency inflation per message: each
	// in-flight latency is multiplied by 1+u·Jitter with u uniform in
	// [0,1). Zero disables message jitter. Jitter only ever delays a
	// message, so causality (arrival >= send completion) is preserved.
	Jitter float64
	// Slowdown is the maximum relative per-rank slowdown: each rank
	// draws a fixed factor in [1, 1+Slowdown) at startup that scales
	// every latency it induces, modeling persistently slow ranks (OS
	// noise, a busy socket). Zero disables.
	Slowdown float64
	// Ties permutes wildcard (AnySource) selection uniformly among the
	// messages that are concurrently available at match time, instead of
	// always taking the earliest virtual arrival. Per-source FIFO order
	// is preserved — only the interleaving across sources varies.
	Ties bool
	// ProbeMiss is the probability that a nonblocking probe (Iprobe) is
	// forced to report "nothing there" even though a message is queued. Forced misses are bounded per call site (see
	// maxConsecMiss), so poll loops still make progress. Blocking
	// probes are never forced to miss.
	ProbeMiss float64
}

// Full is the everything-on exploration profile used by default.
var Full = Profile{Jitter: 1.0, Slowdown: 0.5, Ties: true, ProbeMiss: 0.25}

// Enabled reports whether any perturbation class is active.
func (p Profile) Enabled() bool {
	return p.Jitter > 0 || p.Slowdown > 0 || p.Ties || p.ProbeMiss > 0
}

// String renders p in the form ParseProfile accepts: "off" for the
// zero profile, otherwise a comma-separated key=value list.
func (p Profile) String() string {
	if !p.Enabled() {
		return "off"
	}
	var parts []string
	if p.Jitter > 0 {
		parts = append(parts, "jitter="+strconv.FormatFloat(p.Jitter, 'g', -1, 64))
	}
	if p.Slowdown > 0 {
		parts = append(parts, "slowdown="+strconv.FormatFloat(p.Slowdown, 'g', -1, 64))
	}
	if p.Ties {
		parts = append(parts, "ties")
	}
	if p.ProbeMiss > 0 {
		parts = append(parts, "probemiss="+strconv.FormatFloat(p.ProbeMiss, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// ParseProfile parses the textual profile forms used by the -perturb
// flag and the PERTURB environment variable: the names "off" and
// "full", or a comma-separated list of jitter=F, slowdown=F, ties and
// probemiss=F settings (unmentioned classes stay off).
func ParseProfile(s string) (Profile, error) {
	switch strings.TrimSpace(s) {
	case "", "off", "none":
		return Profile{}, nil
	case "full", "all", "default":
		return Full, nil
	}
	var p Profile
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		key, val, hasVal := strings.Cut(part, "=")
		var fv float64
		if hasVal {
			var err error
			fv, err = strconv.ParseFloat(val, 64)
			if err != nil || fv < 0 {
				return Profile{}, fmt.Errorf("sched: bad value %q for %q (want a non-negative number)", val, key)
			}
		}
		switch key {
		case "jitter":
			if !hasVal {
				return Profile{}, fmt.Errorf("sched: %q needs a value (jitter=0.5)", key)
			}
			p.Jitter = fv
		case "slowdown", "slow":
			if !hasVal {
				return Profile{}, fmt.Errorf("sched: %q needs a value (slowdown=0.5)", key)
			}
			p.Slowdown = fv
		case "ties":
			if hasVal {
				return Profile{}, fmt.Errorf("sched: %q takes no value", key)
			}
			p.Ties = true
		case "probemiss", "miss":
			if !hasVal {
				return Profile{}, fmt.Errorf("sched: %q needs a value (probemiss=0.25)", key)
			}
			p.ProbeMiss = fv
		default:
			return Profile{}, fmt.Errorf("sched: unknown perturbation class %q (want jitter=, slowdown=, ties, probemiss=)", key)
		}
	}
	return p, nil
}

// classes enumerates the perturbation classes for the shrinking pass,
// most-intrusive first (the order shrinking tries to disable them).
var classes = []struct {
	name    string
	disable func(*Profile)
	on      func(Profile) bool
}{
	{"ties", func(p *Profile) { p.Ties = false }, func(p Profile) bool { return p.Ties }},
	{"jitter", func(p *Profile) { p.Jitter = 0 }, func(p Profile) bool { return p.Jitter > 0 }},
	{"slowdown", func(p *Profile) { p.Slowdown = 0 }, func(p Profile) bool { return p.Slowdown > 0 }},
	{"probemiss", func(p *Profile) { p.ProbeMiss = 0 }, func(p Profile) bool { return p.ProbeMiss > 0 }},
}

// enabledClasses returns the names of the active classes, for reporting.
func (p Profile) enabledClasses() []string {
	var names []string
	for _, c := range classes {
		if c.on(p) {
			names = append(names, c.name)
		}
	}
	sort.Strings(names)
	return names
}

// NumClasses reports how many perturbation classes p enables (used by
// tests asserting that shrinking actually minimized).
func (p Profile) NumClasses() int { return len(p.enabledClasses()) }
