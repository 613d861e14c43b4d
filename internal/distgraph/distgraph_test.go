package distgraph

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

func TestOwnerPartition(t *testing.T) {
	g := gen.Path(17)
	d := NewBlockDist(g, 4)
	// Every vertex has exactly one owner and ranges tile [0, n).
	counts := make([]int, 4)
	for v := 0; v < 17; v++ {
		r := d.Owner(v)
		lo, hi := d.Range(r)
		if v < lo || v >= hi {
			t.Fatalf("Owner(%d)=%d but range is [%d,%d)", v, r, lo, hi)
		}
		counts[r]++
	}
	total := 0
	for r, c := range counts {
		if c != d.NumOwned(r) {
			t.Errorf("rank %d owns %d, NumOwned says %d", r, c, d.NumOwned(r))
		}
		total += c
	}
	if total != 17 {
		t.Fatalf("partition covers %d of 17", total)
	}
}

func TestOwnerBalanced(t *testing.T) {
	d := NewBlockDist(gen.Path(100), 8)
	for r := 0; r < 8; r++ {
		if n := d.NumOwned(r); n < 12 || n > 13 {
			t.Errorf("rank %d owns %d vertices, want 12 or 13", r, n)
		}
	}
}

func TestMorePartsThanVertices(t *testing.T) {
	d := NewBlockDist(gen.Path(3), 5)
	total := 0
	for r := 0; r < 5; r++ {
		total += d.NumOwned(r)
	}
	if total != 3 {
		t.Fatalf("coverage %d", total)
	}
	for v := 0; v < 3; v++ {
		d.Owner(v) // must not panic even with empty ranks around
	}
}

func TestLocalCrossArcsSymmetric(t *testing.T) {
	g := gen.SBP(400, 8, 10, 0.5, 1)
	d := NewBlockDist(g, 8)
	locals := make([]*Local, 8)
	for r := range locals {
		locals[r] = d.BuildLocal(r)
	}
	for r, l := range locals {
		for i, q := range l.NeighborRanks {
			j := locals[q].NeighborIndex(r)
			if j < 0 {
				t.Fatalf("rank %d lists %d but not vice versa", r, q)
			}
			if locals[q].CrossArcs[j] != l.CrossArcs[i] {
				t.Errorf("cross arcs asymmetric: %d->%d has %d, reverse has %d",
					r, q, l.CrossArcs[i], locals[q].CrossArcs[j])
			}
		}
	}
}

func TestLocalArcsSumToGraph(t *testing.T) {
	g := gen.Social(500, 8, 2)
	d := NewBlockDist(g, 6)
	var sum int64
	for r := 0; r < 6; r++ {
		sum += d.BuildLocal(r).LocalArcs
	}
	if sum != g.NumArcs() {
		t.Fatalf("local arcs sum %d != global arcs %d", sum, g.NumArcs())
	}
}

func TestRGGStripProcessGraphIsBounded(t *testing.T) {
	// The key structural property behind Fig 4a: an x-sorted RGG under
	// 1-D blocks yields a process graph where each rank talks to at most
	// its two adjacent strips (given radius < strip width).
	n := 4000
	r := gen.RGGRadiusForDegree(n, 6)
	g := gen.RGG(n, r, 3)
	d := NewBlockDist(g, 8)
	st := d.ProcessGraphStats()
	if st.DMax > 2 {
		t.Errorf("RGG strip process graph dmax = %d, want <= 2", st.DMax)
	}
}

func TestSBPProcessGraphNearComplete(t *testing.T) {
	// The contrasting case (paper Table III): HILO block partition graphs
	// connect nearly every rank pair.
	g := gen.SBP(2000, 16, 20, 0.6, 4)
	d := NewBlockDist(g, 16)
	st := d.ProcessGraphStats()
	if st.DMax < 12 {
		t.Errorf("SBP process graph dmax = %d, want near 15", st.DMax)
	}
	if st.DAvg < 10 {
		t.Errorf("SBP process graph davg = %g, want high", st.DAvg)
	}
}

func TestProcessGraphSymmetric(t *testing.T) {
	g := gen.Graph500(9, 5)
	d := NewBlockDist(g, 7)
	pg := d.ProcessGraph()
	for r, nbrs := range pg {
		for _, q := range nbrs {
			found := false
			for _, rr := range pg[q] {
				if rr == r {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("process graph asymmetric: %d->%d", r, q)
			}
		}
	}
}

func TestGhostEdgeStats(t *testing.T) {
	g := gen.BandedMesh(1000, 10, 2, 0.01, 6)
	d := NewBlockDist(g, 4)
	st := d.GhostEdgeStats()
	if st.Total != g.NumArcs() {
		t.Errorf("|E'| total = %d, want %d", st.Total, g.NumArcs())
	}
	if st.Max < int64(st.Avg) {
		t.Error("max below average")
	}
	if st.Sigma < 0 {
		t.Error("negative sigma")
	}
}

func TestReorderingReducesEPrimeSigma(t *testing.T) {
	// The paper observes (Table V) that RCM reordering of a banded mesh
	// balances per-rank |E'|, shrinking its standard deviation. Here the
	// "original" is a scrambled mesh and reordering restores bandedness.
	mesh := gen.BandedMesh(3000, 15, 3, 0, 7)
	scrambled, _ := gen.Scramble(mesh, 8)
	p := 16
	before := NewBlockDist(scrambled, p).ProcessGraphStats()
	after := NewBlockDist(mesh, p).ProcessGraphStats()
	if after.DMax >= before.DMax {
		t.Errorf("banded order should shrink process-graph degree: %d -> %d", before.DMax, after.DMax)
	}
}

func TestLocalViewBasics(t *testing.T) {
	g := gen.Path(20)
	d := NewBlockDist(g, 4)
	l := d.BuildLocal(1)
	if l.Lo != 5 || l.Hi != 10 {
		t.Fatalf("range [%d,%d), want [5,10)", l.Lo, l.Hi)
	}
	if !l.Owns(5) || !l.Owns(9) || l.Owns(10) || l.Owns(4) {
		t.Error("Owns wrong")
	}
	// A path block touches exactly the previous and next rank.
	if len(l.NeighborRanks) != 2 || l.NeighborRanks[0] != 0 || l.NeighborRanks[1] != 2 {
		t.Errorf("neighbors = %v", l.NeighborRanks)
	}
	if l.TotalCrossArcs != 2 {
		t.Errorf("cross arcs = %d, want 2", l.TotalCrossArcs)
	}
	if l.NeighborIndex(2) != 1 || l.NeighborIndex(3) != -1 {
		t.Error("NeighborIndex wrong")
	}
	if l.MemoryModelBytes() <= 0 {
		t.Error("memory model must be positive")
	}
}

func TestDistributionInvariantsQuick(t *testing.T) {
	f := func(seed int64, pRaw, nRaw uint8) bool {
		p := int(pRaw%10) + 1
		n := int(nRaw%100) + p
		g := gen.SBP(n, min(4, n), 5, 0.4, seed)
		d := NewBlockDist(g, p)
		// Cross arc totals are consistent with the process graph, and
		// each rank's local arcs equal its row span in the CSR.
		var cross int64
		for r := 0; r < p; r++ {
			l := d.BuildLocal(r)
			lo, hi := d.Range(r)
			if l.LocalArcs != g.Offsets[hi]-g.Offsets[lo] {
				return false
			}
			cross += l.TotalCrossArcs
		}
		// Every cross arc is counted once per side.
		return cross%2 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraphDistribution(t *testing.T) {
	d := NewBlockDist(graph.NewBuilder(0).Build(), 3)
	st := d.ProcessGraphStats()
	if st.Edges != 0 || st.DMax != 0 {
		t.Errorf("empty distribution stats = %+v", st)
	}
}

// TestLocalsBuiltOnce pins the shared distribution the driver runs on:
// SharedBlockDist keeps one Dist per graph and rank count, and Dist.Local
// one view per rank, built once however many ranks ask at once. Every
// rank of a 64-rank world asks on first use and again in a second run;
// each view must equal a fresh BuildLocal, and NeighborIndex must name
// each neighbour's position and return -1 for every other rank, inside
// the view's owner span and outside it. The inputs are an RGG strip
// (spans of a few ranks) and a ring of strides of three blocks, whose
// spans hold non-neighbours between the neighbours.
func TestLocalsBuiltOnce(t *testing.T) {
	const p = 64
	stride := graph.NewBuilder(p * 4)
	for v := 0; v < p*4; v++ {
		stride.AddEdge(v, (v+12)%(p*4), 1)
	}
	inputs := map[string]*graph.CSR{
		"rgg":    gen.RGG(4000, gen.RGGRadiusForDegree(4000, 8), 3),
		"stride": stride.Build(),
	}
	for name, g := range inputs {
		d := SharedBlockDist(g, p)
		if SharedBlockDist(g, p) != d || SharedBlockDist(g, p/2) == d {
			t.Fatalf("%s: SharedBlockDist does not keep one distribution per rank count", name)
		}
		var runs [2][p]*Local
		for k := range runs {
			if _, err := mpi.Run(p, func(c *mpi.Comm) error {
				runs[k][c.Rank()] = d.Local(c.Rank())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < p; r++ {
			l := runs[0][r]
			if runs[1][r] != l {
				t.Errorf("%s: rank %d got a new view in the second run", name, r)
			}
			if fresh := d.BuildLocal(r); !reflect.DeepEqual(l, fresh) {
				t.Errorf("%s: rank %d: shared view %+v differs from BuildLocal's %+v", name, r, l, fresh)
			}
			for q := -2; q < p+2; q++ {
				want := slices.Index(l.NeighborRanks, q)
				if got := l.NeighborIndex(q); got != want {
					t.Errorf("%s: rank %d: NeighborIndex(%d) = %d, want %d (span [%d,%d))",
						name, r, q, got, want, l.nbrBase, l.nbrBase+len(l.nbrIdx))
				}
			}
		}
		if l := d.Local(p / 2); name == "stride" && (len(l.nbrIdx) != 7 || len(l.NeighborRanks) != 2) {
			t.Errorf("stride: rank %d spans %d owners with %d neighbours, want 7 with 2", p/2, len(l.nbrIdx), len(l.NeighborRanks))
		}
	}
}
