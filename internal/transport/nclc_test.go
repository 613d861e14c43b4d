package transport

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// completeK builds K_n (one vertex per rank under NewBlockDist(g, n)).
func completeK(n int) *graph.CSR {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	return b.Build()
}

// nclcRun executes a fixed 3-round workload — every rank sends one
// tagged record to every process-graph neighbor per round — and returns
// each rank's received records sorted, plus whether combining was on.
func nclcRun(t *testing.T, p int, opts ...mpi.Option) ([][]rec, bool) {
	t.Helper()
	g := completeK(p)
	d := distgraph.NewBlockDist(g, p)
	got := make([][]rec, p)
	combining := false
	opts = append(opts, mpi.WithDeadline(time.Minute))
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCLC(c, topo, l, 4)
		if c.Rank() == 0 {
			_, combining = tr.(*NCLC)
		}
		for r := 0; r < 3; r++ {
			for _, nb := range l.NeighborRanks {
				tr.Send(nb, int64(r+1), int64(nb), int64(c.Rank()))
			}
			tr.Exchange(func(ctx, x, y int64) {
				got[c.Rank()] = append(got[c.Rank()], rec{ctx, x, y})
			})
		}
		tr.Finish()
		return nil
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		sort.Slice(g, func(i, j int) bool {
			a, b := g[i], g[j]
			if a.ctx != b.ctx {
				return a.ctx < b.ctx
			}
			if a.x != b.x {
				return a.x < b.x
			}
			return a.y < b.y
		})
	}
	return got, combining
}

// TestNCLCCombiningMatchesDirect pins the tentpole's core equivalence:
// the multi-hop combining schedule delivers exactly the record multiset
// the direct exchange delivers, round for round. The dense K_8 process
// graph (avg degree 7 > 1.5*ceil(log2 8)) forces combining mode; a
// temporarily unreachable threshold forces the same backend into its
// direct fallback for the reference run.
func TestNCLCCombiningMatchesDirect(t *testing.T) {
	const p = 8
	combined, on := nclcRun(t, p)
	if !on {
		t.Fatal("K_8 at p=8 should select combining mode")
	}
	defer func(f float64) { nclcCombineFactor = f }(nclcCombineFactor)
	nclcCombineFactor = 1e18
	direct, on := nclcRun(t, p)
	if on {
		t.Fatal("unreachable threshold should select direct mode")
	}
	for r := 0; r < p; r++ {
		if len(combined[r]) != len(direct[r]) {
			t.Fatalf("rank %d: combining delivered %d records, direct %d", r, len(combined[r]), len(direct[r]))
		}
		for i := range combined[r] {
			if combined[r][i] != direct[r][i] {
				t.Fatalf("rank %d record %d: combining %+v, direct %+v", r, i, combined[r][i], direct[r][i])
			}
		}
	}
}

// TestNCLCSparseFallsBackToDirect checks the mode decision on a sparse
// process graph: a path's ring of degree <= 2 never clears the
// threshold, and every rank must agree (the decision is collective).
func TestNCLCSparseFallsBackToDirect(t *testing.T) {
	g := gen.Path(32)
	const p = 8
	d := distgraph.NewBlockDist(g, p)
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCLC(c, topo, l, 2)
		if _, direct := tr.(*NCL); !direct {
			t.Errorf("rank %d got %T on a path distribution, want the direct *NCL", c.Rank(), tr)
		}
		tr.Finish()
		return nil
	}, mpi.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
}

// TestNCLCForwardingAccounting checks the relay ledgers: on K_8 the
// ring distances 3, 5, 6, 7 need more than one hop, so intermediates
// must report forwarded traffic — and none of it may leak into
// VolumeByNeighbor, which stays endpoint-uniform (24 bytes per sent
// record toward the final destination).
func TestNCLCForwardingAccounting(t *testing.T) {
	const p = 8
	g := completeK(p)
	d := distgraph.NewBlockDist(g, p)
	fwd := make([]int64, p)
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCLC(c, topo, l, 2).(*NCLC)
		vol := tr.VolumeByNeighbor()
		for _, nb := range l.NeighborRanks {
			tr.Send(nb, 1, int64(nb), int64(c.Rank()))
		}
		n := tr.Exchange(func(ctx, x, y int64) {})
		if n != p-1 {
			t.Errorf("rank %d delivered %d records, want %d", c.Rank(), n, p-1)
		}
		fwd[c.Rank()] = tr.ForwardedRecords()
		if tr.ForwardedBytes() != tr.ForwardedRecords()*nclcWireWords*8 {
			t.Errorf("rank %d: %d forwarded bytes for %d records", c.Rank(), tr.ForwardedBytes(), tr.ForwardedRecords())
		}
		for i, b := range vol {
			if b != recordBytes {
				t.Errorf("rank %d accounted %d bytes toward %d, want %d", c.Rank(), b, l.NeighborRanks[i], recordBytes)
			}
		}
		tr.Finish()
		return nil
	}, mpi.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range fwd {
		total += f
	}
	// Per rank, destinations at distances 3,5,6,7 cost 1,1,1,2 extra
	// hops: 5 forwarded records per source rank.
	if want := int64(5 * p); total != want {
		t.Errorf("total forwarded records = %d, want %d", total, want)
	}
}

// TestNCLCRoundZeroAlloc asserts the steady-state allocation contract of
// a full combining round: stage one record per neighbor, run all
// ceil(log2 8) persistent phase exchanges with forwarding, deliver, and
// run the termination reduction — all from reused buffers, pooled
// runtime messages and the persistent schedules. AllocsPerRun executes
// its body runs+1 times on rank 0; the other ranks run the same count so
// the collectives stay in lockstep.
func TestNCLCRoundZeroAlloc(t *testing.T) {
	const runs = 50
	const p = 8
	g := completeK(p)
	d := distgraph.NewBlockDist(g, p)
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCLC(c, topo, l, 4)
		if _, combining := tr.(*NCLC); !combining {
			t.Errorf("K_8 should combine, got %T", tr)
		}
		round := func() {
			for _, nb := range l.NeighborRanks {
				tr.Send(nb, 1, int64(nb), int64(c.Rank()))
			}
			if n := tr.Exchange(func(ctx, x, y int64) {}); n != p-1 {
				t.Errorf("exchange delivered %d records, want %d", n, p-1)
			}
			c.AllreduceScalarInt64(mpi.OpSum, 1)
		}
		for i := 0; i < 8; i++ {
			round() // warm bundles, receive scratch, rings and pools
		}
		if raceEnabled {
			// Race-mode sync.Pool drops Puts by design, so the pooled
			// message path cannot be allocation-free; keep exercising
			// the rounds for data-race coverage, skip the count.
			for i := 0; i < runs+1; i++ {
				round()
			}
			return nil
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, round); avg != 0 {
				t.Errorf("NCLC combining round: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				round()
			}
		}
		return nil
	}, mpi.WithDeadline(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
}

// TestNCLCDeterministicEverywhere pins the determinism acceptance: the
// delivered record streams (per rank, in delivery order) are
// bit-identical across scheduler modes, GOMAXPROCS settings, and every
// schedule-perturbation profile — delivery order is a pure function of
// the staged sends, like the direct blocking exchange.
func TestNCLCDeterministicEverywhere(t *testing.T) {
	const p = 8
	fingerprint := func(opts ...mpi.Option) uint64 {
		got, on := nclcRun(t, p, opts...)
		if !on {
			t.Fatal("expected combining mode")
		}
		h := uint64(14695981039346656037)
		for r := range got {
			for _, rc := range got[r] {
				for _, v := range []int64{int64(r), rc.ctx, rc.x, rc.y} {
					h = (h ^ uint64(v)) * 1099511628211
				}
			}
		}
		return h
	}
	base := fingerprint()
	for name, opts := range map[string][]mpi.Option{
		"direct-sched":  {mpi.WithScheduler(mpi.SchedDirect)},
		"worker-sched":  {mpi.WithScheduler(mpi.SchedWorkers)},
		"perturb-ties":  {mpi.WithPerturb(0xfeed, sched.Profile{Ties: true})},
		"perturb-full":  {mpi.WithPerturb(0xfeed, sched.Full)},
		"perturb-full2": {mpi.WithPerturb(0xbeef, sched.Full)},
	} {
		if got := fingerprint(opts...); got != base {
			t.Errorf("%s: fingerprint %x, want %x", name, got, base)
		}
	}
	old := runtime.GOMAXPROCS(1)
	got := fingerprint()
	runtime.GOMAXPROCS(old)
	if got != base {
		t.Errorf("GOMAXPROCS=1: fingerprint %x, want %x", got, base)
	}
}
