package analysis

import (
	"sort"

	"repro/internal/mpi"
)

// criticalPath walks the virtual-time critical path backward from the
// last rank to finish. The walk alternates two moves:
//
//   - On the current rank, find the latest blocked interval (EvWait)
//     ending at or before the cursor and attribute the wait-free window
//     between its end and the cursor to the rank's local activity
//     (traced primitives by category, event-free time as compute).
//
//   - If that wait carries a dependency edge (a causing peer and its
//     clock CauseT when it enabled progress), the in-flight span from
//     CauseT to the wait's end is transfer time on the path and the walk
//     hops to (peer, CauseT). Waits without a usable edge are charged to
//     the current rank as blocked time and the walk continues locally at
//     the wait's start.
//
// Each step extends the covered suffix of [0, T] downward, so the path
// tiles the run exactly and LengthSec equals the end-to-end virtual time
// by construction. Rings are sorted by End, which makes the latest-wait
// lookup a binary search plus an amortized-linear backward scan.
func criticalPath(rep *mpi.Report, exchangeClass string, topK int) Path {
	p := Path{
		LengthSec: rep.MaxVirtualTime,
		ByKind:    map[string]float64{},
	}
	n := rep.Procs
	rank := 0
	for r := 1; r < n; r++ {
		if rep.FinalTimes[r] > rep.FinalTimes[rank] {
			rank = r
		}
	}
	t := rep.MaxVirtualTime
	localSec := make([]float64, n)
	var edges []Edge

	// The cursor strictly decreases every step, and each step consumes at
	// least one event or terminates, so total steps are bounded by the
	// event count; the cap is a safety net against malformed timestamps.
	maxSteps := n + 1
	for r := 0; r < n; r++ {
		maxSteps += rep.Events(r).Len()
	}
	for step := 0; t > 0; step++ {
		if step > maxSteps {
			p.Truncated = true
			break
		}
		events := rep.Events(rank)
		// Latest EvWait with End <= t. Positions only move downward per
		// rank across visits, so the backward scans never re-cover ground.
		i := sort.Search(events.Len(), func(k int) bool { return events.At(k).End > t }) - 1
		for i >= 0 && events.At(i).Kind != mpi.EvWait {
			i--
		}
		if i < 0 {
			// No blocked interval remains below the cursor: the rank's
			// whole prefix [0, t] is on the path.
			localSec[rank] += attributeWindow(events, 0, t, p.ByKind)
			p.Hops = len(edges)
			break
		}
		w := events.At(i)
		localSec[rank] += attributeWindow(events, w.End, t, p.ByKind)
		if w.Class != mpi.WaitNone && w.Peer >= 0 && int(w.Peer) < n && w.CauseT < w.End {
			// A usable dependency edge: (CauseT, w.End] was in flight.
			transfer := w.End - w.CauseT
			p.ByKind["transfer"] += transfer
			localSec[rank] += transfer
			edges = append(edges, Edge{
				Rank:        rank,
				Peer:        int(w.Peer),
				Class:       pathClass(w.Class, exchangeClass),
				WaitSec:     w.End - w.Start,
				TransferSec: transfer,
				AtSec:       w.End,
			})
			rank, t = int(w.Peer), w.CauseT
			continue
		}
		// No causal edge recorded (unclassified wait, or a cause clock
		// that would not move the cursor backward): the blocked span is
		// charged here and the walk continues on the same rank.
		blocked := w.End - w.Start
		p.ByKind["blocked"] += blocked
		localSec[rank] += blocked
		t = w.Start
	}
	p.Hops = len(edges)
	if rep.EventTracing() {
		for r := 0; r < n; r++ {
			if rep.EventDrops(r) > 0 {
				p.Truncated = true
			}
		}
	}
	p.RankShares = topShares(localSec, topK)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].WaitSec != edges[j].WaitSec {
			return edges[i].WaitSec > edges[j].WaitSec
		}
		if edges[i].AtSec != edges[j].AtSec {
			return edges[i].AtSec > edges[j].AtSec
		}
		return edges[i].Rank < edges[j].Rank
	})
	if len(edges) > topK {
		edges = edges[:topK]
	}
	p.TopEdges = edges
	return p
}

// pathClass maps a runtime wait class to the serialized edge class,
// routing neighborhood-exchange waits through the model-dependent label
// (wait_at_fence under RMA).
func pathClass(c mpi.WaitClass, exchangeClass string) string {
	switch c {
	case mpi.WaitLateSender:
		return ClassLateSender
	case mpi.WaitNbrExchange:
		return exchangeClass
	case mpi.WaitCollective:
		return ClassCollective
	}
	return ClassUnclassified
}

// attributeWindow attributes the wait-free window (lo, hi] of one rank's
// timeline to activity kinds: traced non-wait events clipped to the
// window by their Chrome-trace category, uncovered time as compute.
// Overlapping events (a recv slice spanning the blocked probe inside it)
// are coverage-merged so no second is counted twice. Returns hi - lo.
func attributeWindow(events mpi.EventLog, lo, hi float64, byKind map[string]float64) float64 {
	if hi <= lo {
		return 0
	}
	i := sort.Search(events.Len(), func(k int) bool { return events.At(k).End > lo })
	cov := lo
	for ; i < events.Len() && events.At(i).End <= hi; i++ {
		e := events.At(i)
		if e.Kind == mpi.EvWait {
			continue // none strictly inside by construction; skip zero-width edges
		}
		s, end := e.Start, e.End
		if s < cov {
			s = cov
		}
		if end <= s {
			continue
		}
		if s > cov {
			byKind["compute"] += s - cov
		}
		byKind[e.Kind.Category()] += end - s
		cov = end
	}
	if hi > cov {
		byKind["compute"] += hi - cov
	}
	return hi - lo
}

// topShares returns the k heaviest per-rank contributions, by seconds
// then rank.
func topShares(localSec []float64, k int) []RankShare {
	out := make([]RankShare, 0, 8)
	for r, s := range localSec {
		if s > 0 {
			out = append(out, RankShare{Rank: r, Seconds: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Rank < out[j].Rank
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
