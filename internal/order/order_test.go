package order

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBFSLevelsPath(t *testing.T) {
	g := gen.Path(5)
	levels, reached := BFSLevels(g, 0)
	if reached != 5 {
		t.Fatalf("reached = %d", reached)
	}
	for v, l := range levels {
		if l != v {
			t.Errorf("level[%d] = %d, want %d", v, l, v)
		}
	}
}

func TestBFSLevelsDisconnected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	levels, reached := BFSLevels(g, 0)
	if reached != 2 {
		t.Fatalf("reached = %d, want 2", reached)
	}
	if levels[2] != -1 || levels[3] != -1 {
		t.Error("unreachable vertices must have level -1")
	}
}

func TestPseudoPeripheralOnPath(t *testing.T) {
	g := gen.Path(11)
	pp := PseudoPeripheral(g, 5)
	if pp != 0 && pp != 10 {
		t.Errorf("pseudo-peripheral of a path from middle = %d, want an endpoint", pp)
	}
}

func TestRCMIsPermutation(t *testing.T) {
	g := gen.Social(500, 6, 1)
	perm := RCM(g)
	if !IsPermutation(perm) {
		t.Fatal("RCM did not return a permutation")
	}
}

func TestRCMReducesBandwidthOnScrambledMesh(t *testing.T) {
	mesh := gen.BandedMesh(1500, 12, 2, 0, 2)
	scrambled, _ := gen.Scramble(mesh, 3)
	before := scrambled.Bandwidth()
	re := Apply(scrambled, RCM(scrambled))
	after := re.Bandwidth()
	if err := re.Validate(); err != nil {
		t.Fatal(err)
	}
	if after >= before/4 {
		t.Errorf("RCM bandwidth %d, want far below scrambled %d", after, before)
	}
}

func TestRCMReducesProfileOnGrid(t *testing.T) {
	g, _ := gen.Scramble(gen.Grid2D(20, 20), 7)
	before := g.Profile()
	after := Apply(g, RCM(g)).Profile()
	if after >= before {
		t.Errorf("RCM profile %d, want below %d", after, before)
	}
}

func TestRCMDeterministic(t *testing.T) {
	g := gen.SBP(300, 10, 8, 0.4, 5)
	a, b := RCM(g), RCM(g)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RCM is not deterministic")
		}
	}
}

func TestRCMHandlesDisconnectedAndEmpty(t *testing.T) {
	g := gen.KMerGrids(4, 2, 4, 8) // several components
	perm := RCM(g)
	if !IsPermutation(perm) {
		t.Fatal("RCM on disconnected graph is not a permutation")
	}
	empty := graph.NewBuilder(0).Build()
	if len(RCM(empty)) != 0 {
		t.Fatal("RCM on empty graph")
	}
	isolated := graph.NewBuilder(3).Build()
	if !IsPermutation(RCM(isolated)) {
		t.Fatal("RCM on isolated vertices")
	}
}

func TestIsPermutationRejects(t *testing.T) {
	if IsPermutation([]int{0, 0, 1}) {
		t.Error("duplicate accepted")
	}
	if IsPermutation([]int{0, 3}) {
		t.Error("out of range accepted")
	}
	if !IsPermutation(nil) {
		t.Error("empty should be a permutation")
	}
}

func TestRCMPermutationQuick(t *testing.T) {
	// Property: RCM of any random graph is a permutation, and the
	// reordered graph is structurally valid with identical edge count.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 5
		g := gen.SBP(n, 4, 4, 0.3, seed)
		perm := RCM(g)
		if !IsPermutation(perm) {
			return false
		}
		h := Apply(g, perm)
		return h.Validate() == nil && h.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
