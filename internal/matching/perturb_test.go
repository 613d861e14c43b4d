package matching

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Seed-pinned schedule-perturbation regressions for the order-dependence
// suspects in engine.go (ISSUE 4 satellite 1). The explorer sweep in
// internal/sched found no divergence over 100+ seeds per model; these
// tests pin the suspect interleavings directly so a future regression is
// caught at unit scope with a named seed, not just by the sweep.

// pinnedSeeds are the adversarial seeds these regressions replay. 0x5eed
// is the explorer's base seed; the others were picked by running the
// ties-only profile until the mailbox tie-permutation demonstrably
// reordered REJECT/INVALID deliveries relative to the canonical order.
var pinnedSeeds = []uint64{0x5eed, 0xdead, 0x1, 0x2a, 0xbadc0de}

// assertMatchesSerialPerturbed is assertMatchesSerial under a pinned
// perturbation seed: the exact serial matching must still come out.
func assertMatchesSerialPerturbed(t *testing.T, g *graph.CSR, p int, m Model, prof sched.Profile, seed uint64) {
	t.Helper()
	want := Serial(g)
	got, err := Run(g, Options{
		Procs: p, Model: m, Deadline: time.Minute,
		Perturb: prof, PerturbSeed: seed,
	})
	if err != nil {
		t.Fatalf("%v p=%d seed=%#x profile=%v: %v", m, p, seed, prof, err)
	}
	if err := VerifyLocallyDominant(g, got.Result); err != nil {
		t.Fatalf("%v p=%d seed=%#x: %v", m, p, seed, err)
	}
	if got.Weight != want.Weight || got.Cardinality != want.Cardinality {
		t.Fatalf("%v p=%d seed=%#x: weight/card (%g,%d) != serial (%g,%d)",
			m, p, seed, got.Weight, got.Cardinality, want.Weight, want.Cardinality)
	}
	for v := range want.Mate {
		if got.Mate[v] != want.Mate[v] {
			t.Fatalf("%v p=%d seed=%#x: mate[%d] = %d, serial %d", m, p, seed, v, got.Mate[v], want.Mate[v])
		}
	}
}

// TestPerturbedMatchesSerialAllModels pins schedule-invariance for every
// model at every pinned seed under the full perturbation profile.
func TestPerturbedMatchesSerialAllModels(t *testing.T) {
	g := gen.RGG(300, gen.RGGRadiusForDegree(300, 6), 3)
	for _, m := range Models {
		for _, seed := range pinnedSeeds {
			assertMatchesSerialPerturbed(t, g, 4, m, sched.Full, seed)
		}
	}
}

// TestNSRRejectInvalidInterleavingPerturbed targets the first suspect:
// the NSR path receiving REJECT and INVALID deliveries in permuted order
// among concurrently-available sources. The ties-only profile isolates
// exactly that reordering (no timing changes), and the SBP input's
// near-complete process graph maximizes same-round multi-source ties.
func TestNSRRejectInvalidInterleavingPerturbed(t *testing.T) {
	g := gen.SBP(200, 8, 10, 0.5, 5)
	for _, m := range []Model{NSR, NSRA, MBP} {
		for _, seed := range pinnedSeeds {
			assertMatchesSerialPerturbed(t, g, 6, m, sched.Profile{Ties: true}, seed)
		}
	}
}

// TestNCLUnpackOrderPerturbed targets the second suspect: the NCL
// per-round unpack loop must not assume neighbor blocks arrive in rank
// order. Jitter + slowdown skews when each neighbor's block lands;
// ties permutes same-round availability.
func TestNCLUnpackOrderPerturbed(t *testing.T) {
	g := gen.SBP(200, 8, 10, 0.5, 5)
	// NCLC rides along: at p=6 this SBP input's near-complete process
	// graph (avg degree 5 > 1.5*ceil(log2 6)) puts it in combining mode,
	// so the multi-hop routed path is also swept for order dependence.
	for _, m := range []Model{NCL, NCLI, NCLC} {
		for _, seed := range pinnedSeeds {
			assertMatchesSerialPerturbed(t, g, 6, m, sched.Full, seed)
		}
	}
}

// TestEagerRejectPerturbedStillValid pins the half-approx family's one
// legitimately schedule-dependent mode: EagerReject (the paper's
// literal Algorithm 6) may produce different matchings under different
// schedules, but every one of them must still be a valid matching. The
// exclusion from fingerprint equivalence is now formal — the explorer
// sweeps it under sched.Outcome.ValidOnly (see
// internal/sched/explore_async_test.go, TestExploreEagerRejectExcluded),
// so a divergent-but-valid matching can never be a false positive. The
// asynchronous maximal engine shares the same contract.
func TestEagerRejectPerturbedStillValid(t *testing.T) {
	g := gen.SBP(200, 8, 10, 0.5, 5)
	for _, seed := range pinnedSeeds {
		got, err := Run(g, Options{
			Procs: 6, Model: NSR, EagerReject: true, Deadline: time.Minute,
			Perturb: sched.Full, PerturbSeed: seed,
		})
		if err != nil {
			t.Fatalf("seed %#x: %v", seed, err)
		}
		if err := Verify(g, got.Result); err != nil {
			t.Fatalf("seed %#x: eager-reject matching invalid: %v", seed, err)
		}
	}
}

// captureSender records pushed protocol messages so the engine can be
// driven directly, message by message, in adversarial orders. It
// unpacks each record's x word into the target and its row position.
type captureSender struct {
	recs []struct {
		dst            int
		ctx, x, pos, y int64
	}
}

func (s *captureSender) Send(dst int, ctx, target, y int64) {
	x, pos := transport.UnpackTarget(target)
	s.recs = append(s.recs, struct {
		dst            int
		ctx, x, pos, y int64
	}{dst, ctx, x, pos, y})
}

// target is the x word the owner of y puts on a record for x, packed as
// the engines' senders pack it: x beside y's position in x's row, read
// through the mirror of y's arc to x.
func target(g *graph.CSR, x, y int64) int64 {
	i, ok := g.SearchNeighbor(int(y), int(x))
	if !ok {
		panic(fmt.Sprintf("no edge {%d,%d}", x, y))
	}
	return transport.PackTarget(int32(x), g.Mirror()[g.Offsets[y]+int64(i)])
}

// TestEngineAdversarialInterleavings drives one rank's engine directly
// with the interleavings the suspects describe, which no transport can
// be forced to produce on demand:
//
//	(a) INVALID then REJECT for the same arc — the second delivery must
//	    be a no-op (the closed-bit guard), not a double resolution;
//	(b) REJECT then a stale REQUEST for the same arc — the REQUEST must
//	    hit the stale guard, not revive the edge;
//	(c) a remembered REQUEST followed by INVALID from the same ghost —
//	    findMate must not complete a match over the now-evicted arc.
//
// The engine runs inside a 2-rank world so Compute/ledger charging works;
// rank 1 owns the ghosts and stays idle.
func TestEngineAdversarialInterleavings(t *testing.T) {
	// 6 vertices, 2 ranks of 3. Rank 0 owns {0,1,2}; ghosts {3,4,5}.
	// Vertex 0's neighbors are all ghosts, heaviest first: 3 (w=9),
	// 4 (w=8), 5 (w=7). Vertex 1-2 give rank 0 local fallback partners.
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 3, W: 9},
		{U: 0, V: 4, W: 8},
		{U: 0, V: 5, W: 7},
		{U: 1, V: 2, W: 5},
		{U: 3, V: 4, W: 1},
	})
	d := distgraph.NewBlockDist(g, 2)
	_, err := mpi.RunChecked(2, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			c.Barrier()
			return nil
		}
		defer c.Barrier()
		tr := &captureSender{}
		mates := make([]int32, g.NumVertices())
		for i := range mates {
			mates[i] = 99 // rank 1's range must stay untouched
		}
		e := newEngine(c, d.BuildLocal(0), tr, false, g.KeyOrder(), g.Mirror(), mates)
		e.Start() // vertex 0 points at ghost 3 and requests; 1-2 match locally
		if e.cand[0] != 3 {
			t.Errorf("after start: cand[0] = %d, want ghost 3", e.cand[0])
		}
		pendingAfterStart := e.pending

		// (c) remembered REQUEST then INVALID from the same ghost: ghost 4
		// requests vertex 0 (non-mutual — 0 points at 3), then dies.
		e.handleMessage(ctxRequest, target(g, 0, 4), 4)
		e.handleMessage(ctxInvalid, target(g, 0, 4), 4)
		// (a) INVALID then REJECT for the arc to ghost 3 (both sides of a
		// concurrent deactivation): one resolution, second delivery no-op.
		e.handleMessage(ctxInvalid, target(g, 0, 3), 3)
		if got := pendingAfterStart - e.pending; got != 2 {
			t.Errorf("resolved %d arcs, want 2 (one per distinct arc)", got)
		}
		e.handleMessage(ctxReject, target(g, 0, 3), 3)
		if got := pendingAfterStart - e.pending; got != 2 {
			t.Errorf("REJECT after INVALID double-resolved the arc (pending now %d)", e.pending)
		}
		// Vertex 0 must now re-point past the evicted arcs to ghost 5 —
		// NOT match with the dead requester 4 via its remembered flag.
		e.DrainWork()
		if e.state[0] == stMatched && e.mate[0] == 4 {
			t.Fatalf("vertex 0 matched dead ghost 4 via a stale remembered REQUEST")
		}
		if e.cand[0] != 5 {
			t.Errorf("after evictions: cand[0] = %d, want ghost 5", e.cand[0])
		}
		// (b) stale REQUEST for an already-resolved arc must be a no-op.
		before := e.pending
		e.handleMessage(ctxRequest, target(g, 0, 3), 3)
		if e.pending != before || (e.state[0] == stMatched && e.mate[0] == 3) {
			t.Errorf("stale REQUEST revived resolved arc (pending %d->%d, mate[0]=%d)",
				before, e.pending, e.mate[0])
		}
		// Finish the protocol for this rank: ghost 5 accepts.
		e.handleMessage(ctxRequest, target(g, 0, 5), 5)
		if e.state[0] != stMatched || e.mate[0] != 5 {
			t.Errorf("vertex 0 state/mate = %d/%d, want matched with 5", e.state[0], e.mate[0])
		}
		if e.pending != 0 {
			t.Errorf("pending = %d after all arcs settled, want 0", e.pending)
		}
		// The engine's mates are the caller's vector, written in place.
		if want := []int32{5, 2, 1, 99, 99, 99}; !slices.Equal(mates, want) {
			t.Errorf("mates = %v, want %v", mates, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// NSRA's flush determinism (flushAll iterating destinations in rank
// order, not Go map order — map order would reshuffle Isend issuance
// and therefore the perturbation engine's per-message PRNG draws) is
// pinned at transport scope by TestP2PAggFlushRankOrder, which asserts
// the issuance order itself from the event trace. A matching-level
// ledger-replay assertion would be wrong here: NSRA is a probe-polling
// path, so its virtual times legitimately wobble with physical timing
// (see README "Determinism, perturbed schedules, and replay"); its
// result invariance is covered by TestNSRRejectInvalidInterleavingPerturbed.
