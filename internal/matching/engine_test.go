package matching

import (
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// TestEngineHostFootprint bounds the half-approximate engine's host
// state: newEngine allocates 9 B per owned vertex (ptr, cand, state) and
// two bits per local arc (asked, closed), while the mates go straight
// into the caller's result vector. The modeled MPI rank's memory — what
// MaxMemoryBytes and tab8 report — stays the 21 B per owned vertex plus
// a flag byte per arc it always was. Rank 0 of a 2-rank world holds
// 50 000 owned RGG vertices; rank 1 idles.
func TestEngineHostFootprint(t *testing.T) {
	const n = 100_000
	g := gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 38)
	order, mirror := g.KeyOrder(), g.Mirror()
	d := distgraph.NewBlockDist(g, 2)
	l := d.BuildLocal(0)
	mates := make([]int32, n)
	var alloc uint64
	rep, err := mpi.RunChecked(2, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			c.Barrier()
			return nil
		}
		defer c.Barrier()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := newEngine(c, l, &captureSender{}, false, order, mirror, mates)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		alloc = after.TotalAlloc - before.TotalAlloc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	nOwned := int64(l.NumOwned())
	if nOwned < 50_000 {
		t.Fatalf("rank 0 owns %d vertices, want >= 50000", nOwned)
	}
	// Each of the five slices may round up to a whole runtime page
	// (8 KiB); 4 KiB more covers the engine struct and stray runtime
	// allocations.
	const slack = 5*8<<10 + 4<<10
	ceiling := uint64(9*nOwned + l.LocalArcs/4 + slack)
	t.Logf("newEngine allocated %d B for %d owned vertices and %d local arcs (ceiling %d)", alloc, nOwned, l.LocalArcs, ceiling)
	if alloc > ceiling {
		t.Errorf("newEngine allocated %d B, ceiling 9·%d + %d/4 + %d = %d", alloc, nOwned, l.LocalArcs, slack, ceiling)
	}
	if got, want := rep.Totals().MaxMemoryBytes, nOwned*21+l.LocalArcs; got != want {
		t.Errorf("modeled MaxMemoryBytes = %d, want nOwned·21 + LocalArcs = %d", got, want)
	}
}

// setBits lists the positions of the set bits of a bitset.
func setBits(set []uint64) []int64 {
	var out []int64
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			out = append(out, int64(w*64+bits.TrailingZeros64(x)))
		}
	}
	return out
}

// TestEngineArcBitBoundaries drives one rank's engine over arcs that sit
// on the bitsets' word boundaries. Rank 1 of a 2-rank world owns hub
// vertex 151, whose 151 arcs — 151 > 128 and not a multiple of 64 — run
// to ghosts 0..150 on the idle rank 0, heaviest first, so the hub points
// at ghost 0 after Start. The rank's arcs start at global arc 151, not 0.
// For REQUEST, REJECT and INVALID on local arcs 63, 64 and 150, the
// message sets only its own bit (asked for a non-mutual REQUEST, closed
// otherwise), closing decrements pending once, and a second REJECT or
// INVALID on the arc is a no-op. A sweep then closes every arc twice.
func TestEngineArcBitBoundaries(t *testing.T) {
	const hub, arcs = 151, 151
	var edges []graph.Edge
	for u := 0; u < arcs; u++ {
		edges = append(edges, graph.Edge{U: hub, V: u, W: float64(1000 - u)})
	}
	g := graph.FromEdges(2*hub, edges)
	order, mirror := g.KeyOrder(), g.Mirror()
	d := distgraph.NewBlockDist(g, 2)
	l := d.BuildLocal(1)
	if l.Lo != hub || l.LocalArcs != arcs || l.TotalCrossArcs != arcs {
		t.Fatalf("rank 1: Lo %d, %d local arcs, %d cross; want %d, %d, %d", l.Lo, l.LocalArcs, l.TotalCrossArcs, hub, arcs, arcs)
	}
	_, err := mpi.RunChecked(2, func(c *mpi.Comm) error {
		if c.Rank() != 1 {
			c.Barrier()
			return nil
		}
		defer c.Barrier()
		start := func() (*engine, *captureSender) {
			tr := &captureSender{}
			e := newEngine(c, l, tr, false, order, mirror, make([]int32, g.NumVertices()))
			if e.arcBase != arcs {
				t.Fatalf("arcBase = %d, want %d", e.arcBase, arcs)
			}
			e.Start()
			if e.cand[0] != 0 || e.pending != arcs || len(tr.recs) != 1 {
				t.Fatalf("after Start: cand %d, pending %d, %d sends; want ghost 0, %d, 1", e.cand[0], e.pending, len(tr.recs), arcs)
			}
			if r := tr.recs[0]; r.x != 0 || r.y != hub || g.Adj[g.Offsets[0]+r.pos] != hub {
				t.Fatalf("after Start: REQUEST {x %d, pos %d, y %d}; want ghost 0 with the hub's position in its row", r.x, r.pos, r.y)
			}
			return e, tr
		}
		// send delivers a ctx record from the far endpoint of local arc a
		// to the hub, as that endpoint's owner would send it.
		send := func(e *engine, ctx, a int64) {
			y := int64(g.Adj[e.arcBase+a])
			e.handleMessage(ctx, target(g, hub, y), y)
		}

		for _, ctx := range []int64{ctxRequest, ctxReject, ctxInvalid} {
			for _, a := range []int64{63, 64, arcs - 1} {
				e, tr := start()
				send(e, ctx, a)
				wantAsked, wantClosed, wantPending := []int64(nil), []int64{a}, int64(arcs-1)
				if ctx == ctxRequest {
					wantAsked, wantClosed, wantPending = []int64{a}, nil, arcs
				}
				if got := setBits(e.asked); !slices.Equal(got, wantAsked) {
					t.Errorf("ctx %d on arc %d: asked bits %v, want %v", ctx, a, got, wantAsked)
				}
				if got := setBits(e.closed); !slices.Equal(got, wantClosed) {
					t.Errorf("ctx %d on arc %d: closed bits %v, want %v", ctx, a, got, wantClosed)
				}
				if e.pending != wantPending || len(tr.recs) != 1 || len(e.work) != 0 {
					t.Errorf("ctx %d on arc %d: pending %d, %d sends, %d work; want %d, 1, 0",
						ctx, a, e.pending, len(tr.recs), len(e.work), wantPending)
				}
				// A REJECT then an INVALID: the arc closes once, whatever
				// came first, and the second deactivation is a no-op.
				send(e, ctxReject, a)
				send(e, ctxInvalid, a)
				if got := setBits(e.closed); !slices.Equal(got, []int64{a}) || e.pending != arcs-1 {
					t.Errorf("ctx %d on arc %d, then REJECT and INVALID: closed bits %v, pending %d; want [%d], %d",
						ctx, a, got, e.pending, a, arcs-1)
				}
				if got := setBits(e.asked); !slices.Equal(got, wantAsked) || len(tr.recs) != 1 || len(e.work) != 0 {
					t.Errorf("ctx %d on arc %d, then REJECT and INVALID: asked bits %v, %d sends, %d work; want %v, 1, 0",
						ctx, a, got, len(tr.recs), len(e.work), wantAsked)
				}
			}
		}

		// Every arc: pending falls by exactly one on its first
		// deactivation and not at all on its second; the bits past the
		// last arc stay clear.
		e, _ := start()
		for a := int64(0); a < arcs; a++ {
			send(e, ctxReject, a)
			send(e, ctxInvalid, a)
			if e.pending != arcs-1-a {
				t.Fatalf("after closing arcs 0..%d: pending %d, want %d", a, e.pending, arcs-1-a)
			}
		}
		if got := setBits(e.closed); len(got) != arcs || got[arcs-1] != arcs-1 {
			t.Errorf("closed bits: %d set, last %d; want %d set, last %d", len(got), got[len(got)-1], arcs, arcs-1)
		}
		if len(e.closed) != (arcs+63)/64 || len(e.asked) != (arcs+63)/64 {
			t.Errorf("bitset words: closed %d, asked %d; want %d", len(e.closed), len(e.asked), (arcs+63)/64)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
