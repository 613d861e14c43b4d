// Black-box conformance suite for the transport factory contract: every
// model constructed through transport.New — whatever its wire strategy —
// must deliver the sent record multiset exactly once, preserve
// per-source record order, keep a consistent per-destination volume
// ledger, honor Finish, and (round models) enforce the neighborhood and
// per-arc protocol bounds. Drivers rely on precisely this surface and
// nothing else, so the suite runs against the exported API only.
package transport_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/distgraph"
	"repro/internal/driver"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// completeGraph builds K_n with one vertex per rank under a block
// distribution of n ranks: every pair of ranks shares exactly one cross
// arc, so per-neighbor buffers hold exactly MaxPerArc records and the
// process graph is as dense as it gets (NCLC runs in combining mode).
// Edges listed in missing are left out, making those rank pairs
// non-neighbors.
func completeGraph(n int, missing ...[2]int) *graph.CSR {
	skip := make(map[[2]int]bool, len(missing))
	for _, m := range missing {
		skip[m] = true
	}
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !skip[[2]int{u, v}] {
				b.AddEdge(u, v, 1)
			}
		}
	}
	return b.Build()
}

// pump moves records with the drivers' barrier-free adapter
// (driver.Pump: one exchange round, or flush + nonblocking drain) and
// returns after a global fence confirms every sent record was handled —
// the level fence of bfs.Run.
func pump(c *mpi.Comm, bk transport.Backend, h transport.Handler, sent, recvd *int64) {
	for {
		driver.Pump(bk, h)
		if c.AllreduceScalarInt64(mpi.OpSum, *sent-*recvd) == 0 {
			return
		}
	}
}

// TestConformanceDeliveryOrderVolume drives every model through the same
// multi-round exchange on a complete process graph and checks the three
// ledger invariants at once: exact-once delivery, per-source FIFO, and
// VolumeByDest accounting 24 bytes per record toward the final
// destination (never toward self, never toward a relay).
func TestConformanceDeliveryOrderVolume(t *testing.T) {
	const p = 6
	const rounds = 3
	const perRound = 2
	// MaxPerArc is the per-arc PROTOCOL bound, i.e. over the backend's
	// whole lifetime: the RMA window regions never recycle displacements
	// (real one-sided regions don't), so it must cover every round.
	const maxPerArc = rounds * perRound
	g := completeGraph(p)
	d := distgraph.NewBlockDist(g, p)
	for _, m := range transport.Models {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			_, err := mpi.Run(p, func(c *mpi.Comm) error {
				l := d.BuildLocal(c.Rank())
				bk, err := transport.New(m, transport.Deps{Comm: c, Local: l, MaxPerArc: maxPerArc})
				if err != nil {
					return err
				}
				vol := bk.VolumeByDest()
				var sent, recvd int64
				lastSeq := make([]int64, p) // per-source FIFO watermark
				got := make([]int64, p)     // per-source delivery count
				h := func(ctx, x, y int64) {
					recvd++
					src, seq := y/1000, y%1000
					if x != int64(c.Rank()) {
						t.Errorf("%v: record for vertex %d delivered to rank %d", m, x, c.Rank())
					}
					if seq <= lastSeq[src] {
						t.Errorf("%v: rank %d got seq %d from %d after %d (per-source order broken)",
							m, c.Rank(), seq, src, lastSeq[src])
					}
					lastSeq[src] = seq
					got[src]++
				}
				for r := 0; r < rounds; r++ {
					for j := 0; j < perRound; j++ {
						for _, nb := range l.NeighborRanks {
							// seq starts at 1 so the zero watermark is below it.
							bk.Send(nb, 1, int64(nb), int64(c.Rank()*1000+r*perRound+j+1))
							sent++
						}
					}
					pump(c, bk, h, &sent, &recvd)
				}
				bk.Finish()
				transport.Release(bk)
				for src := 0; src < p; src++ {
					want := int64(rounds * perRound)
					if src == c.Rank() {
						want = 0
					}
					if got[src] != want {
						t.Errorf("%v: rank %d received %d records from %d, want %d", m, c.Rank(), got[src], src, want)
					}
				}
				var volSum int64
				for dst, b := range vol {
					volSum += b
					if dst == c.Rank() && b != 0 {
						t.Errorf("%v: %d bytes accounted toward self", m, b)
					}
				}
				if volSum != sent*24 {
					t.Errorf("%v: ledger holds %d bytes, want %d (24 per sent record)", m, volSum, sent*24)
				}
				return nil
			}, mpi.WithDeadline(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceFlavorLoops asserts the factory's flavor contract: the
// backend implements the driver-loop interface its model's Flavor
// promises, on every model.
func TestConformanceFlavorLoops(t *testing.T) {
	g := gen.Path(12)
	const p = 3
	d := distgraph.NewBlockDist(g, p)
	for _, m := range transport.Models {
		_, err := mpi.Run(p, func(c *mpi.Comm) error {
			bk, err := transport.New(m, transport.Deps{Comm: c, Local: d.BuildLocal(c.Rank()), MaxPerArc: 1})
			if err != nil {
				return err
			}
			_, isAsync := bk.(transport.Async)
			_, isRound := bk.(transport.Round)
			switch m.Flavor() {
			case transport.FlavorAsync:
				if !isAsync {
					t.Errorf("%v declares FlavorAsync but backend is not transport.Async", m)
				}
			case transport.FlavorRound:
				if !isRound {
					t.Errorf("%v declares FlavorRound but backend is not transport.Round", m)
				}
			}
			bk.Finish()
			transport.Release(bk)
			return nil
		}, mpi.WithDeadline(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConformanceRoundBounds asserts the two protocol panics every
// buffered round backend owes its caller: sending to a rank outside the
// process graph, and exceeding the per-arc record bound. Two inputs, so
// NCLC owes them in both of its modes: a path (sparse: the factory hands
// back the direct exchange) and K_8 less one edge (dense: combining).
func TestConformanceRoundBounds(t *testing.T) {
	expectPanic := func(m transport.Model, substr string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%v: no panic, want one containing %q", m, substr)
				return
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
				t.Errorf("%v: panic %q, want substring %q", m, msg, substr)
			}
		}()
		f()
	}
	for _, in := range []struct {
		name      string
		g         *graph.CSR
		p         int
		combining bool
	}{
		// Rank r's neighbors are r±1 only.
		{"path", gen.Path(16), 4, false},
		// Every pair of ranks is adjacent but 0 and 7.
		{"dense", completeGraph(8, [2]int{0, 7}), 8, true},
	} {
		d := distgraph.NewBlockDist(in.g, in.p)
		for _, m := range transport.Models {
			if m.Flavor() != transport.FlavorRound {
				continue
			}
			_, err := mpi.Run(in.p, func(c *mpi.Comm) error {
				l := d.BuildLocal(c.Rank())
				bk, err := transport.New(m, transport.Deps{Comm: c, Local: l, MaxPerArc: 1})
				if err != nil {
					return err
				}
				if _, ok := bk.(*transport.NCLC); m == transport.ModelNCLC && ok != in.combining {
					t.Errorf("%s: NCLC backend is %T, want combining = %v", in.name, bk, in.combining)
				}
				// On both inputs the opposite end of the world is a
				// non-neighbor for the two outer ranks (for the ranks
				// between it is adjacent or the rank itself — skip).
				far := in.p - 1 - c.Rank()
				if far != c.Rank() && l.NeighborIndex(far) < 0 {
					expectPanic(m, "non-neighbor rank", func() { bk.Send(far, 1, 0, 0) })
				}
				// One cross arc per adjacent rank and MaxPerArc=1: the second
				// record to the same neighbor must trip the overflow guard.
				nb := l.NeighborRanks[0]
				lo, _ := d.Range(nb)
				x := int64(lo) // a vertex the destination owns
				bk.Send(nb, 1, x, 0)
				expectPanic(m, "per-edge message bound violated", func() { bk.Send(nb, 1, x, 1) })
				// The surviving staged record still delivers cleanly.
				var sent, recvd int64 = 1, 0
				pump(c, bk, func(ctx, x, y int64) { recvd++ }, &sent, &recvd)
				bk.Finish()
				transport.Release(bk)
				return nil
			}, mpi.WithDeadline(time.Minute))
			if err != nil {
				t.Fatalf("%s/%v: %v", in.name, m, err)
			}
		}
	}
}

// TestConformanceFactoryErrors pins the factory's error contract:
// missing dependencies are errors, not panics.
func TestConformanceFactoryErrors(t *testing.T) {
	if _, err := transport.New(transport.ModelNSR, transport.Deps{}); err == nil {
		t.Error("nil Comm accepted")
	}
	_, err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := transport.New(transport.ModelNCL, transport.Deps{Comm: c}); err == nil {
			t.Error("round model with nil Local accepted")
		}
		if _, err := transport.New(transport.Model(99), transport.Deps{Comm: c}); err == nil {
			t.Error("unknown model accepted")
		}
		g := gen.Path(8)
		l := distgraph.NewBlockDist(g, 2).BuildLocal(c.Rank())
		if _, err := transport.New(transport.ModelRMA, transport.Deps{Comm: c, Local: l}); err == nil {
			t.Error("round model with zero MaxPerArc accepted")
		}
		return nil
	}, mpi.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
}
