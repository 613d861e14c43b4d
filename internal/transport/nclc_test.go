package transport

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
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
// each rank's received records in delivery order, plus whether combining
// was on. direct runs the exchange NCLC falls back to, NewNCL, instead.
func nclcRun(t *testing.T, p int, direct bool, opts ...mpi.Option) ([][]rec, bool) {
	t.Helper()
	g := completeK(p)
	d := distgraph.NewBlockDist(g, p)
	got := make([][]rec, p)
	combining := false
	opts = append(opts, mpi.WithDeadline(time.Minute))
	_, err := mpi.Run(p, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		var tr Round
		if direct {
			tr = NewNCL(c, topo, l, 4)
		} else {
			tr = NewNCLC(c, topo, l, 4)
		}
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
	return got, combining
}

// sortRecs orders records by (ctx, x, y), turning a delivery stream into
// a canonical multiset.
func sortRecs(rs []rec) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.ctx != b.ctx {
			return a.ctx < b.ctx
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.y < b.y
	})
}

// TestNCLCCombiningMatchesDirect pins the tentpole's core equivalence:
// the multi-hop combining schedule delivers exactly the record multiset
// the direct exchange delivers, round for round. The dense K_8 process
// graph (avg degree 7 > 1.5*ceil(log2 8)) forces combining mode; the
// reference run is the direct exchange NCLC's fallback returns.
func TestNCLCCombiningMatchesDirect(t *testing.T) {
	const p = 8
	combined, on := nclcRun(t, p, false)
	if !on {
		t.Fatal("K_8 at p=8 should select combining mode")
	}
	direct, _ := nclcRun(t, p, true)
	for r := 0; r < p; r++ {
		sortRecs(combined[r])
		sortRecs(direct[r])
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

// relayed returns how many records each rank relayed for others: the
// records it injected into the phase exchanges, read from the runtime's
// ledger, less the staged[r] it sent itself.
func relayed(rep *mpi.Report, staged []int64) []int64 {
	fwd := make([]int64, rep.Procs)
	for r, rs := range rep.Stats {
		fwd[r] = rs.NbrCollBytes/(nclcWireWords*8) - staged[r]
	}
	return fwd
}

// TestNCLCForwardingAccounting checks the relay traffic: on K_8 the
// ring distances 3, 5, 6, 7 need more than one hop, so intermediates
// inject records beyond their own — and none of it may leak into
// VolumeByNeighbor, which stays endpoint-uniform (24 bytes per sent
// record toward the final destination).
func TestNCLCForwardingAccounting(t *testing.T) {
	const p = 8
	g := completeK(p)
	d := distgraph.NewBlockDist(g, p)
	staged := make([]int64, p)
	rep, err := mpi.Run(p, func(c *mpi.Comm) error {
		l := d.BuildLocal(c.Rank())
		topo := c.CreateGraphTopo(l.NeighborRanks)
		tr := NewNCLC(c, topo, l, 2).(*NCLC)
		vol := tr.VolumeByNeighbor()
		for _, nb := range l.NeighborRanks {
			tr.Send(nb, 1, int64(nb), int64(c.Rank()))
		}
		staged[c.Rank()] = int64(len(l.NeighborRanks))
		n := tr.Exchange(func(ctx, x, y int64) {})
		if n != p-1 {
			t.Errorf("rank %d delivered %d records, want %d", c.Rank(), n, p-1)
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
	for _, f := range relayed(rep, staged) {
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
// ceil(log2 8) persistent phase exchanges, each bundle gathered into the
// one reused scratch buffer, deliver from the received views, and run
// the termination reduction — all from reused buffers, the runtime's
// kept rings and the persistent schedules. AllocsPerRun executes
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
			round() // warm the staging and scratch buffers and the rings
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
// the staged sends, like the direct blocking exchange. The default run's
// fingerprint is pinned too, so a change of the delivery order itself
// (phase, view or record order) fails even though it is deterministic.
func TestNCLCDeterministicEverywhere(t *testing.T) {
	const p = 8
	const want = 0xe79795c013c6e795
	fingerprint := func(opts ...mpi.Option) uint64 {
		got, on := nclcRun(t, p, false, opts...)
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
	if base != want {
		t.Errorf("default run: fingerprint %x, want %x", base, uint64(want))
	}
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

// nclcReference is a sequential model of the append-based ring-power
// router, one round over all p ranks at once. out[r][i] holds the words
// rank r staged toward nbrs[r][i]. Each rank first appends its staged
// records, destination prepended, to the bundle of their first phase;
// phase j then moves rank r's bundle to r+2^j, which files each record
// as home or appends it to the bundle of its next phase. It returns each
// rank's delivered records in order and its forwarded-record count.
func nclcReference(p int, nbrs [][]int, out [][][]int64) ([][]rec, []int64) {
	k := log2Ceil(p)
	hop := func(r, dst int) int { return bits.TrailingZeros(uint((dst - r + p) % p)) }
	bundles := make([][][]int64, p)
	for r := range bundles {
		bundles[r] = make([][]int64, k)
		for i, dst := range nbrs[r] {
			w := out[r][i]
			for n := 0; n+recordWords <= len(w); n += recordWords {
				j := hop(r, dst)
				bundles[r][j] = append(bundles[r][j], int64(dst), w[n], w[n+1], w[n+2])
			}
		}
	}
	home := make([][]rec, p)
	fwd := make([]int64, p)
	for j := 0; j < k; j++ {
		sent := make([][]int64, p)
		for r := range sent {
			sent[r], bundles[r][j] = bundles[r][j], nil
		}
		for r, b := range sent {
			to := (r + 1<<j) % p
			for n := 0; n+nclcWireWords <= len(b); n += nclcWireWords {
				dst := int(b[n])
				if dst == to {
					home[to] = append(home[to], rec{b[n+1], b[n+2], b[n+3]})
					continue
				}
				fwd[to]++
				next := hop(to, dst)
				bundles[to][next] = append(bundles[to][next], b[n:n+nclcWireWords]...)
			}
		}
	}
	return home, fwd
}

// TestNCLCMatchesAppendReference is the differential test of the
// combining router: on K_p, ranks stage 0-3 random records per neighbor
// per round (half of them from inside the previous round's handler), and
// every rank's per-round delivery sequence, Exchange's count and its
// relayed records must equal nclcReference's exactly. p = 6, 12, 33
// are not powers of two; at p = 8 and 16 the last phase has one peer
// (2·step = p).
func TestNCLCMatchesAppendReference(t *testing.T) {
	const rounds = 6
	for _, p := range []int{6, 8, 12, 16, 33} {
		g := completeK(p)
		d := distgraph.NewBlockDist(g, p)
		nbrs := make([][]int, p)
		for r := range nbrs {
			nbrs[r] = d.BuildLocal(r).NeighborRanks
		}
		rng := rand.New(rand.NewSource(int64(p)))
		staged := make([][][][]int64, rounds) // round, rank, neighbor position
		for rd := range staged {
			staged[rd] = make([][][]int64, p)
			for r := range staged[rd] {
				staged[rd][r] = make([][]int64, len(nbrs[r]))
				for i := range nbrs[r] {
					for n := rng.Intn(4); n > 0; n-- {
						staged[rd][r][i] = append(staged[rd][r][i], int64(rd+1), rng.Int63n(1000), rng.Int63n(1000))
					}
				}
			}
		}
		got := make([][][]rec, p) // rank, round
		count := make([][]int, p)
		rep, err := mpi.Run(p, func(c *mpi.Comm) error {
			me := c.Rank()
			l := d.BuildLocal(me)
			tr, ok := NewNCLC(c, c.CreateGraphTopo(l.NeighborRanks), l, 3).(*NCLC)
			if !ok {
				t.Errorf("p=%d rank %d: K_p should combine", p, me)
				return nil
			}
			stage := func(rd int) {
				for i, w := range staged[rd][me] {
					for n := 0; n < len(w); n += recordWords {
						tr.Send(l.NeighborRanks[i], w[n], w[n+1], w[n+2])
					}
				}
			}
			got[me] = make([][]rec, rounds)
			stage(0)
			for rd := 0; rd < rounds; rd++ {
				next := rd+1 < rounds && rd%2 == 0 // stage round rd+1 from the handler
				n := tr.Exchange(func(ctx, x, y int64) {
					if next {
						stage(rd + 1)
						next = false
					}
					got[me][rd] = append(got[me][rd], rec{ctx, x, y})
				})
				count[me] = append(count[me], n)
				if rd+1 < rounds && (rd%2 == 1 || next) {
					stage(rd + 1)
				}
			}
			tr.Finish()
			return nil
		}, mpi.WithDeadline(time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		wantFwd := make([]int64, p)
		sent := make([]int64, p)
		for rd := 0; rd < rounds; rd++ {
			home, f := nclcReference(p, nbrs, staged[rd])
			for r := 0; r < p; r++ {
				wantFwd[r] += f[r]
				for _, w := range staged[rd][r] {
					sent[r] += int64(len(w) / recordWords)
				}
				if count[r][rd] != len(home[r]) {
					t.Errorf("p=%d round %d rank %d: Exchange returned %d, want %d", p, rd, r, count[r][rd], len(home[r]))
				}
				if !slices.Equal(got[r][rd], home[r]) {
					t.Errorf("p=%d round %d rank %d: delivered %v, want %v", p, rd, r, got[r][rd], home[r])
				}
			}
		}
		for r, f := range relayed(rep, sent) {
			if f != wantFwd[r] {
				t.Errorf("p=%d rank %d: relayed %d records, want %d", p, r, f, wantFwd[r])
			}
		}
	}
}
