package bfs

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/transport"
)

func opts(p int) Options {
	return Options{Procs: p, Deadline: 60 * time.Second}
}

func checkAgainstSerial(t *testing.T, g *graph.CSR, root, p int) *Result {
	t.Helper()
	res, err := Run(g, root, opts(p))
	if err != nil {
		t.Fatal(err)
	}
	serial, reached := order.BFSLevels(g, root)
	if res.Visited != reached {
		t.Fatalf("visited %d, serial reached %d", res.Visited, reached)
	}
	if err := Verify(g, root, res, serial); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBFSPath(t *testing.T) {
	g := gen.Path(20)
	res := checkAgainstSerial(t, g, 0, 4)
	if res.Levels != 20 {
		t.Errorf("levels = %d, want 20", res.Levels)
	}
}

func TestBFSFamiliesAndRankCounts(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"rmat":   gen.Graph500(9, 1),
		"social": gen.Social(800, 8, 2),
		"rgg":    gen.RGG(1000, gen.RGGRadiusForDegree(1000, 8), 3),
		"kmer":   gen.KMerGrids(6, 3, 8, 4),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 3, 8} {
			t.Run(name, func(t *testing.T) {
				checkAgainstSerial(t, g, 0, p)
			})
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := graph.NewBuilder(10)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(5, 6, 1) // separate component
	g := b.Build()
	res := checkAgainstSerial(t, g, 0, 3)
	if res.Visited != 3 {
		t.Errorf("visited = %d, want 3", res.Visited)
	}
	if res.Level[5] != -1 || res.Parent[6] != -1 {
		t.Error("other component must stay unreached")
	}
}

func TestBFSNonzeroRoot(t *testing.T) {
	g := gen.Graph500(8, 7)
	checkAgainstSerial(t, g, g.NumVertices()/2, 4)
}

func TestBFSSingleRankNoMessages(t *testing.T) {
	g := gen.Social(400, 6, 9)
	res, err := Run(g, 0, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Report.Totals()
	if tot.P2PMsgs != 0 {
		t.Errorf("single rank sent %d messages", tot.P2PMsgs)
	}
}

func TestBFSCommMatrixDiffersFromEmpty(t *testing.T) {
	g := gen.Graph500(9, 11)
	o := opts(8)
	o.TrackMatrices = true
	res, err := Run(g, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	mm := res.Report.MsgMatrix()
	var nonzero int
	for i := range mm {
		for j := range mm[i] {
			if mm[i][j] > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Error("R-MAT BFS should produce cross-rank traffic")
	}
}

func TestBFSMatchesSerialQuick(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		p := int(pRaw%5) + 1
		g := gen.SBP(150, 6, 5, 0.4, seed)
		res, err := Run(g, 0, opts(p))
		if err != nil {
			return false
		}
		serial, _ := order.BFSLevels(g, 0)
		return Verify(g, 0, res, serial) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSInvalidArgs(t *testing.T) {
	g := gen.Path(5)
	if _, err := Run(g, -1, opts(2)); err == nil {
		t.Error("negative root accepted")
	}
	if _, err := Run(g, 0, Options{Procs: 0}); err == nil {
		t.Error("zero procs accepted")
	}
}

func TestBFSNeighborhoodModeMatchesSerial(t *testing.T) {
	graphs := []*graph.CSR{
		gen.Graph500(9, 21),
		gen.RGG(1200, gen.RGGRadiusForDegree(1200, 8), 22),
		gen.Path(40),
	}
	for _, g := range graphs {
		for _, p := range []int{1, 4, 8} {
			o := opts(p)
			o.Model = transport.ModelNCL
			res, err := Run(g, 0, o)
			if err != nil {
				t.Fatal(err)
			}
			serial, reached := order.BFSLevels(g, 0)
			if res.Visited != reached {
				t.Fatalf("p=%d visited %d, want %d", p, res.Visited, reached)
			}
			if err := Verify(g, 0, res, serial); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBFSModesAgree(t *testing.T) {
	g := gen.Social(700, 8, 23)
	a, err := Run(g, 0, opts(6))
	if err != nil {
		t.Fatal(err)
	}
	o := opts(6)
	o.Model = transport.ModelNCL
	b, err := Run(g, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Level {
		if a.Level[v] != b.Level[v] {
			t.Fatalf("modes disagree on level of %d: %d vs %d", v, a.Level[v], b.Level[v])
		}
	}
	// The collective mode must not use point-to-point sends.
	tot := b.Report.Totals()
	if tot.P2PMsgs != 0 {
		t.Errorf("neighborhood mode sent %d p2p messages", tot.P2PMsgs)
	}
	if tot.NbrOps == 0 {
		t.Error("neighborhood mode used no neighborhood collectives")
	}
}
