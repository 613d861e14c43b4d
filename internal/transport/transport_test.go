package transport

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Compile-time interface conformance.
var (
	_ Async = (*P2P)(nil)
	_ Async = (*P2PAgg)(nil)
	_ Round = (*NCL)(nil)
	_ Round = (*RMA)(nil)
	_ Round = (*NCLI)(nil)
)

// run executes body on p ranks with the standard test deadline.
func run(p int, body func(c *mpi.Comm) error) (*mpi.Report, error) {
	return mpi.Run(p, body, mpi.WithDeadline(30*time.Second))
}

type rec struct{ ctx, x, y int64 }

// clique returns rank c's partition of K_p, one vertex per rank: every
// other rank is a process-graph neighbor.
func clique(c *mpi.Comm) *distgraph.Local {
	return distgraph.NewBlockDist(completeK(c.Size()), c.Size()).BuildLocal(c.Rank())
}

func TestP2PRoundTrip(t *testing.T) {
	_, err := run(2, func(c *mpi.Comm) error {
		tr := NewP2P(c, clique(c), false)
		if c.Rank() == 0 {
			tr.Send(1, 3, 10, 20)
			tr.Send(1, 4, 11, 21)
		}
		c.Barrier()
		if c.Rank() == 1 {
			var got []rec
			tr.Drain(func(ctx, x, y int64) { got = append(got, rec{ctx, x, y}) })
			if len(got) != 2 || got[0] != (rec{3, 10, 20}) || got[1] != (rec{4, 11, 21}) {
				t.Errorf("got %v", got)
			}
		}
		tr.Finish()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestP2PAggBatchingAndFlush(t *testing.T) {
	rep, err := run(2, func(c *mpi.Comm) error {
		tr := NewP2PAgg(c, clique(c), 4) // 4 records per batch
		if c.Rank() == 0 {
			for k := int64(0); k < 10; k++ {
				tr.Send(1, 1, k, k)
			}
			// 10 records = 2 full batches sent + 2 parked; Finish flushes.
			tr.Finish()
		}
		c.Barrier()
		if c.Rank() == 1 {
			var got []rec
			tr.Drain(func(ctx, x, y int64) { got = append(got, rec{ctx, x, y}) })
			if len(got) != 10 {
				t.Errorf("received %d records, want 10", len(got))
			}
			for k, r := range got {
				if r.x != int64(k) {
					t.Errorf("record %d out of order: %+v", k, r)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 records in batches of 4 -> 3 messages, not 10.
	if n := rep.Stats[0].SendCount; n != 3 {
		t.Errorf("aggregated into %d messages, want 3", n)
	}
}

// TestP2PAggFlushRankOrder pins the determinism of the aggregating
// transport's batch flush: flushAll must issue the parked batches in
// ascending destination-rank order, never Go map order. Map-order
// flushing would reshuffle Isend issuance — and therefore the
// perturbation engine's per-message jitter-stream draws — between two
// runs of the SAME seed, silently breaking replayability (a reordering
// no real MPI library exhibits, since user code issues its sends in
// program order). The event trace records sends at issuance, so the
// ascending-peer order of the flush is asserted directly; staging the
// records in DESCENDING rank order proves the flush reorders them.
func TestP2PAggFlushRankOrder(t *testing.T) {
	const p = 5
	rep, err := mpi.Run(p, func(c *mpi.Comm) error {
		tr := NewP2PAgg(c, clique(c), 64) // batch far above 1: nothing auto-flushes
		for dst := p - 1; dst >= 0; dst-- {
			if dst != c.Rank() {
				tr.Send(dst, 1, int64(dst), int64(c.Rank()))
			}
		}
		tr.Finish() // flushAll: one parked batch per destination
		var recvd int64 = 0
		sent := int64(p - 1)
		for {
			tr.Drain(func(ctx, x, y int64) { recvd++ })
			if c.AllreduceScalarInt64(mpi.OpSum, sent-recvd) == 0 {
				return nil
			}
		}
	}, mpi.WithDeadline(30*time.Second), mpi.WithEventTrace(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		last := -1
		flushed := 0
		for _, e := range rep.Events(r) {
			if e.Kind != mpi.EvSend || e.Tag != aggTag {
				continue
			}
			if e.Peer <= last {
				t.Errorf("rank %d flushed batch to %d after %d (want ascending rank order)", r, e.Peer, last)
			}
			last = e.Peer
			flushed++
		}
		if flushed != p-1 {
			t.Errorf("rank %d issued %d flush batches, want %d", r, flushed, p-1)
		}
	}
}

func TestP2PAggFewerMessagesThanP2P(t *testing.T) {
	const records = 200
	run := func(agg bool) int64 {
		rep, err := run(2, func(c *mpi.Comm) error {
			var tr Async = NewP2P(c, clique(c), false)
			if agg {
				tr = NewP2PAgg(c, clique(c), 32)
			}
			if c.Rank() == 0 {
				for k := int64(0); k < records; k++ {
					tr.Send(1, 1, k, k)
				}
				tr.Finish()
			}
			c.Barrier()
			if c.Rank() == 1 {
				n := 0
				tr.Drain(func(ctx, x, y int64) { n++ })
				if n != records {
					t.Errorf("agg=%v delivered %d records", agg, n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats[0].SendCount
	}
	plain, agg := run(false), run(true)
	if agg*10 > plain {
		t.Errorf("aggregation sent %d messages vs %d plain — no coalescing", agg, plain)
	}
}

func TestRoundBackendsDeliverIdentically(t *testing.T) {
	// Same record stream through NCL, RMA and NCLI on a ring topology;
	// all must deliver exactly the sent multiset.
	g := gen.Path(40)
	const p = 4
	d := distgraph.NewBlockDist(g, p)
	for _, kind := range []string{"ncl", "rma", "ncli"} {
		_, err := run(p, func(c *mpi.Comm) error {
			l := d.BuildLocal(c.Rank())
			topo := c.CreateGraphTopo(l.NeighborRanks)
			var tr Round
			switch kind {
			case "ncl":
				tr = NewNCL(c, topo, l, 2)
			case "rma":
				tr = NewRMA(c, topo, l, 2)
			case "ncli":
				tr = NewNCLI(c, topo, l, 2)
			}
			// Send one record per cross arc per round, two rounds.
			total := 0
			for round := 0; round < 2; round++ {
				for _, q := range l.NeighborRanks {
					// The path's cross arc endpoints: boundary vertices.
					var x int64
					if q < c.Rank() {
						x = int64(l.Lo - 1)
					} else {
						x = int64(l.Hi)
					}
					tr.Send(q, 1, x, int64(c.Rank()))
				}
				n := tr.Exchange(func(ctx, x, y int64) {
					if ctx != 1 {
						t.Errorf("%s: bad ctx %d", kind, ctx)
					}
					total++
				})
				_ = n
			}
			// Drain the pipelined backend's tail.
			tr.Exchange(func(ctx, x, y int64) { total++ })
			tr.Finish()
			if total != 2*len(l.NeighborRanks) {
				t.Errorf("%s: rank %d delivered %d records, want %d", kind, c.Rank(), total, 2*len(l.NeighborRanks))
			}
			if r, ok := tr.(*RMA); ok {
				r.Free()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestNCLOverflowPanics(t *testing.T) {
	g := gen.Path(8)
	d := distgraph.NewBlockDist(g, 2)
	_, err := run(2, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCL(c, topo, l, 1) // 1 record per cross arc
		q := l.NeighborRanks[0]
		tr.Send(q, 1, 0, 0)
		tr.Send(q, 1, 0, 0) // exceeds the bound
		return nil
	})
	if err == nil {
		t.Fatal("buffer overflow must fail the run")
	}
}

// newStaged builds one of the three staging backends and returns it with
// its stage and a function summing the capacity of every staging buffer
// it holds (NCLI's spare half included). NCLC must combine.
func newStaged(t *testing.T, m Model, c *mpi.Comm, l *distgraph.Local, maxPerArc int64) (Round, *stage, func() int) {
	topo := c.CreateGraphTopo(l.NeighborRanks)
	sum := func(bufs ...[][]int64) int {
		n := 0
		for _, b := range bufs {
			for _, buf := range b {
				n += cap(buf)
			}
		}
		return n
	}
	switch m {
	case ModelNCL:
		b := NewNCL(c, topo, l, maxPerArc)
		return b, &b.stage, func() int { return sum(b.out) }
	case ModelNCLI:
		b := NewNCLI(c, topo, l, maxPerArc)
		return b, &b.stage, func() int { return sum(b.out, b.spare) }
	}
	b, ok := NewNCLC(c, topo, l, maxPerArc).(*NCLC)
	if !ok {
		panic(fmt.Sprintf("%v: the input should combine", m))
	}
	return b, &b.stage, func() int { return sum(b.out) }
}

// TestStageBoundExact pins the per-edge bound, which Send checks by
// arithmetic rather than by a buffer's capacity: in a round, exactly
// CrossArcs × maxPerArc records to one neighbor stage, one more panics
// with the bound message, and the next round starts a fresh count.
func TestStageBoundExact(t *testing.T) {
	const p, maxPerArc = 8, 3
	// Two vertices per rank: four cross arcs to every other rank, dense
	// enough for NCLC to combine.
	d := distgraph.NewBlockDist(completeK(2*p), p)
	for _, m := range []Model{ModelNCL, ModelNCLI, ModelNCLC} {
		_, err := run(p, func(c *mpi.Comm) error {
			l := d.BuildLocal(c.Rank())
			tr, _, _ := newStaged(t, m, c, l, maxPerArc)
			nb := l.NeighborRanks[0]
			bound := l.CrossArcs[0] * maxPerArc
			x, _ := d.Range(nb)
			want := fmt.Sprintf("transport: %v buffer overflow to rank %d (per-edge message bound violated)", m, nb)
			for round := 0; round < 2; round++ {
				for k := int64(0); k < bound; k++ {
					tr.Send(nb, 1, int64(x), k)
				}
				func() {
					defer func() {
						if r := recover(); fmt.Sprint(r) != want {
							t.Errorf("%v: record %d of round %d: panic %v, want %q", m, bound+1, round, r, want)
						}
					}()
					tr.Send(nb, 1, int64(x), bound)
				}()
				tr.Exchange(func(ctx, x, y int64) {})
			}
			tr.Finish()
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

// TestStageGrowsToUse checks that host staging follows use: after rounds
// of uneven per-neighbor volume on a dense process graph, the staging
// buffers' summed capacity is at most twice the staged high-water (per
// buffer, the most any round staged in it, summed) — not the protocol
// bound.
func TestStageGrowsToUse(t *testing.T) {
	const p, maxPerArc, rounds = 8, 2, 7
	d := distgraph.NewBlockDist(gen.SBP(400, 8, 10, 0.5, 1), p)
	for _, m := range []Model{ModelNCL, ModelNCLI, ModelNCLC} {
		_, err := run(p, func(c *mpi.Comm) error {
			l := d.BuildLocal(c.Rank())
			tr, s, capacity := newStaged(t, m, c, l, maxPerArc)
			// NCLI alternates between its two halves, round by round.
			halves := 1
			if m == ModelNCLI {
				halves = 2
			}
			peak := make([][]int, halves)
			for h := range peak {
				peak[h] = make([]int, len(l.NeighborRanks))
			}
			var bound int64
			for r := 0; r < rounds; r++ {
				for i, nb := range l.NeighborRanks {
					// At most half the bound, and varying by round.
					n := int64(r*7+i*3+c.Rank()) % (l.CrossArcs[i]*maxPerArc/2 + 1)
					x, _ := d.Range(nb)
					for k := int64(0); k < n; k++ {
						tr.Send(nb, 1, int64(x), k)
					}
					peak[r%halves][i] = max(peak[r%halves][i], len(s.out[i]))
					if r == 0 {
						bound += l.CrossArcs[i] * maxPerArc * recordWords
					}
				}
				tr.Exchange(func(ctx, x, y int64) {})
			}
			tr.Finish()
			hw := 0
			for _, pk := range peak {
				for _, w := range pk {
					hw += w
				}
			}
			if got := capacity(); got > 2*hw {
				t.Errorf("%v rank %d: staging capacity %d words, staged high-water %d (bound %d)", m, c.Rank(), got, hw, int64(halves)*bound)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	g := gen.Path(12)
	d := distgraph.NewBlockDist(g, 3)
	_, err := run(3, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCL(c, topo, l, 2)
		if c.Rank() == 0 {
			tr.Send(2, 1, 0, 0) // rank 2 is not a path neighbor of rank 0
		}
		return nil
	})
	if err == nil {
		t.Fatal("send to non-neighbor must fail")
	}
}

// TestVolumeByNeighbor asserts the per-neighbor byte ledger every
// factory-built backend exposes for round telemetry: after rounds of
// sends to random neighbors, element i holds recordBytes per record sent
// to NeighborRanks[i], uniformly across models. Each round's ledger feeds
// one RoundLog, and a world-width row the test keeps by destination rank
// feeds another: the merged series must agree on Bytes and MaxLinkBytes,
// so keying the row by neighbor loses nothing the telemetry reports.
func TestVolumeByNeighbor(t *testing.T) {
	const p, rounds, perRound = 8, 4, 6
	d := distgraph.NewBlockDist(gen.SBP(240, p, 6, 0.2, 3), p)
	for _, m := range Models {
		nbrLogs, refLogs := make([]*telemetry.RoundLog, p), make([]*telemetry.RoundLog, p)
		_, err := run(p, func(c *mpi.Comm) error {
			l := d.BuildLocal(c.Rank())
			bk, err := New(m, Deps{Comm: c, Local: l, MaxPerArc: rounds * perRound})
			if err != nil {
				return err
			}
			vol := bk.VolumeByNeighbor() // activate the lazy ledger before sending
			nbrLogs[c.Rank()] = telemetry.NewRoundLog(rounds, len(l.NeighborRanks))
			refLogs[c.Rank()] = telemetry.NewRoundLog(rounds, p)
			ref := make([]int64, p) // bytes by destination rank
			sends := make([]int64, p)
			rng := rand.New(rand.NewSource(int64(c.Rank())))
			var sent, recvd int64
			h := func(ctx, x, y int64) { recvd++ }
			for r := 0; r < rounds; r++ {
				for k := 0; k < perRound && len(l.NeighborRanks) > 0; k++ {
					nb := l.NeighborRanks[rng.Intn(len(l.NeighborRanks))]
					lo, _ := d.Range(nb)
					bk.Send(nb, 1, int64(lo), int64(c.Rank()))
					sends[nb]++
					ref[nb] += recordBytes
					sent++
				}
				// Move records until none is in flight anywhere.
				for settled := false; !settled; {
					switch b := bk.(type) {
					case Round:
						b.Exchange(h)
					case Async:
						b.Finish()
						b.Drain(h)
					}
					settled = c.AllreduceScalarInt64(mpi.OpSum, sent-recvd) == 0
				}
				nbrLogs[c.Rank()].Append(0, 0, 0, 0, 0, 0, 0, vol)
				refLogs[c.Rank()].Append(0, 0, 0, 0, 0, 0, 0, ref)
			}
			bk.Finish()
			Release(bk)
			if len(vol) != len(l.NeighborRanks) {
				t.Errorf("%v rank %d: ledger has %d cells, degree %d", m, c.Rank(), len(vol), len(l.NeighborRanks))
			}
			for i, nb := range l.NeighborRanks {
				if vol[i] != sends[nb]*recordBytes {
					t.Errorf("%v rank %d: ledger[%d] = %d, want %d (%d sends to rank %d)", m, c.Rank(), i, vol[i], sends[nb]*recordBytes, sends[nb], nb)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, want := telemetry.Merge(nbrLogs), telemetry.Merge(refLogs)
		if got.Rounds() != rounds || want.Rounds() != rounds {
			t.Fatalf("%v: merged %d and %d rounds, want %d", m, got.Rounds(), want.Rounds(), rounds)
		}
		for r := range got.Points {
			g, w := got.Points[r], want.Points[r]
			if g.Bytes != w.Bytes || g.MaxLinkBytes != w.MaxLinkBytes {
				t.Errorf("%v round %d: neighbor row gives Bytes %d MaxLinkBytes %d, world row %d %d", m, r, g.Bytes, g.MaxLinkBytes, w.Bytes, w.MaxLinkBytes)
			}
		}
	}
}

// TestTelemetryRoundZeroAlloc extends the NCL aggregation-round contract
// below with the full telemetry hot path: after each exchange the rank
// samples its clock, mailbox occupancy and per-neighbor volume ledger
// and appends a row to a RoundLog. The instrumented round must stay
// allocation-free in amortised terms (the log's rows grow by doubling,
// a handful of growths over the measured rounds), so enabling
// -rounds/-json telemetry cannot perturb the steady state it measures.
func TestTelemetryRoundZeroAlloc(t *testing.T) {
	const runs = 50
	g := gen.Path(8)
	d := distgraph.NewBlockDist(g, 2)
	_, err := run(2, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCL(c, topo, l, 8)
		log := telemetry.NewRoundLog(1024, len(l.NeighborRanks))
		peer := 1 - c.Rank()
		x, y := int64(3), int64(4)
		if c.Rank() == 0 {
			x, y = 4, 3
		}
		var unresolved, done int64
		round := func() {
			tr.Send(peer, 1, x, y)
			if n := tr.Exchange(func(ctx, rx, ry int64) {}); n != 1 {
				t.Errorf("exchange delivered %d records, want 1", n)
			}
			c.AllreduceScalarInt64(mpi.OpSum, 1)
			done++
			log.Append(c.Now(), unresolved, done, done, 0, 0, c.QueuedBytes(), tr.VolumeByNeighbor())
		}
		for i := 0; i < 8; i++ {
			round() // warm buffers, rings and pools
		}
		if c.Rank() == 0 && !raceEnabled { // see TestNCLCRoundZeroAlloc
			if avg := testing.AllocsPerRun(runs, round); avg != 0 {
				t.Errorf("telemetry-instrumented NCL round: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				round()
			}
		}
		if log.Drops() != 0 {
			t.Errorf("rank %d dropped %d rows", c.Rank(), log.Drops())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNCLRoundZeroAlloc asserts the steady-state allocation contract of
// one full NCL aggregation round — queue a record, exchange counts and
// payloads, deliver, and run the termination reduction — exercising the
// send boxes, the Into receive variants and the scalar allreduce scratch
// together. AllocsPerRun executes its body runs+1
// times on rank 0; rank 1 runs the same count so the collective stays in
// lockstep.
func TestNCLRoundZeroAlloc(t *testing.T) {
	const runs = 50
	g := gen.Path(8)
	d := distgraph.NewBlockDist(g, 2)
	_, err := run(2, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCL(c, topo, l, 8)
		peer := 1 - c.Rank()
		// The single cross edge of the path is {3,4}; x must be owned by
		// the destination rank.
		x, y := int64(3), int64(4)
		if c.Rank() == 0 {
			x, y = 4, 3
		}
		round := func() {
			tr.Send(peer, 1, x, y)
			if n := tr.Exchange(func(ctx, rx, ry int64) {}); n != 1 {
				t.Errorf("exchange delivered %d records, want 1", n)
			}
			c.AllreduceScalarInt64(mpi.OpSum, 1)
		}
		for i := 0; i < 8; i++ {
			round() // warm buffers, rings and pools
		}
		if c.Rank() == 0 && !raceEnabled { // see TestNCLCRoundZeroAlloc
			if avg := testing.AllocsPerRun(runs, round); avg != 0 {
				t.Errorf("NCL aggregation round: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				round()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
