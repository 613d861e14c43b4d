package matching

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

func opts(p int, m Model) Options {
	return Options{Procs: p, Model: m, Deadline: 60 * time.Second}
}

// assertMatchesSerial runs model m on g with p ranks and requires the
// exact serial matching (the uniqueness oracle).
func assertMatchesSerial(t *testing.T, g *graph.CSR, p int, m Model) *ParallelResult {
	t.Helper()
	want := Serial(g)
	got, err := Run(g, opts(p, m))
	if err != nil {
		t.Fatalf("%v with p=%d: %v", m, p, err)
	}
	if err := VerifyLocallyDominant(g, got.Result); err != nil {
		t.Fatalf("%v with p=%d: %v", m, p, err)
	}
	if got.Weight != want.Weight || got.Cardinality != want.Cardinality {
		t.Fatalf("%v with p=%d: weight/card (%g,%d) != serial (%g,%d)",
			m, p, got.Weight, got.Cardinality, want.Weight, want.Cardinality)
	}
	for v := range want.Mate {
		if got.Mate[v] != want.Mate[v] {
			t.Fatalf("%v with p=%d: mate[%d] = %d, serial %d", m, p, v, got.Mate[v], want.Mate[v])
		}
	}
	return got
}

func TestAllModelsTinyGraphs(t *testing.T) {
	tiny := []*graph.CSR{
		graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}}),
		graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 1}}),
		gen.Path(7),
		graph.NewBuilder(4).Build(), // no edges at all
	}
	for _, g := range tiny {
		for _, m := range Models {
			for _, p := range []int{1, 2, 3} {
				assertMatchesSerial(t, g, p, m)
			}
		}
	}
}

func TestAllModelsAllFamilies(t *testing.T) {
	families := map[string]*graph.CSR{
		"rgg":    gen.RGG(1200, gen.RGGRadiusForDegree(1200, 6), 1),
		"rmat":   gen.Graph500(9, 2),
		"sbp":    gen.SBP(800, 12, 10, 0.5, 3),
		"kmer":   gen.KMerGrids(10, 3, 8, 4),
		"social": gen.Social(900, 8, 5),
		"banded": gen.BandedMesh(1000, 12, 2, 0.01, 6),
	}
	for name, g := range families {
		for _, m := range Models {
			t.Run(name+"/"+m.String(), func(t *testing.T) {
				assertMatchesSerial(t, g, 8, m)
			})
		}
	}
}

func TestManyRanks(t *testing.T) {
	g := gen.Social(2000, 8, 7)
	for _, m := range Models {
		assertMatchesSerial(t, g, 32, m)
	}
}

func TestMoreRanksThanVertices(t *testing.T) {
	g := gen.Path(5)
	for _, m := range Models {
		assertMatchesSerial(t, g, 9, m)
	}
}

func TestUniformWeightsParallel(t *testing.T) {
	// Pathological tie-break instances across models and rank counts.
	for _, g := range []*graph.CSR{gen.Path(400), gen.Grid2D(15, 20)} {
		for _, m := range Models {
			assertMatchesSerial(t, g, 8, m)
		}
	}
}

func TestEagerRejectProducesValidMatching(t *testing.T) {
	// The paper's literal Algorithm 6 protocol: result may differ from
	// the locally-dominant matching but must be a valid matching.
	g := gen.Social(800, 8, 8)
	serialWeight := Serial(g).Weight
	for _, m := range Models {
		o := opts(8, m)
		o.EagerReject = true
		got, err := Run(g, o)
		if err != nil {
			t.Fatalf("%v eager: %v", m, err)
		}
		if err := Verify(g, got.Result); err != nil {
			t.Fatalf("%v eager: %v", m, err)
		}
		if got.Weight < 0.5*serialWeight {
			t.Errorf("%v eager: weight %g collapsed versus LD %g", m, got.Weight, serialWeight)
		}
	}
}

func TestRoundCountsReported(t *testing.T) {
	g := gen.SBP(500, 8, 8, 0.5, 9)
	for _, m := range []Model{NCL, RMA} {
		res, err := Run(g, opts(6, m))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds < 1 {
			t.Errorf("%v: rounds = %d", m, res.Rounds)
		}
		if res.Messages <= 0 {
			t.Errorf("%v: messages = %d", m, res.Messages)
		}
	}
}

func TestMessageBoundPerCrossEdge(t *testing.T) {
	// Protocol bound: total protocol messages <= MaxMessagesPerCrossEdge
	// per cross arc (sum over ranks of cross arcs counts each edge's two
	// sides separately).
	g := gen.Social(1000, 10, 10)
	res, err := Run(g, opts(8, NSR))
	if err != nil {
		t.Fatal(err)
	}
	var crossArcs int64
	for r := 0; r < 8; r++ {
		crossArcs += res.Dist.BuildLocal(r).TotalCrossArcs
	}
	if res.Messages > crossArcs*MaxMessagesPerCrossEdge {
		t.Errorf("messages %d exceed bound %d", res.Messages, crossArcs*MaxMessagesPerCrossEdge)
	}
}

func TestSingleRankMatchesAllModels(t *testing.T) {
	// p=1: no communication at all; every transport must degrade
	// gracefully (empty neighborhoods, zero-size windows).
	g := gen.Graph500(8, 4)
	for _, m := range Models {
		res := assertMatchesSerial(t, g, 1, m)
		if res.Messages != 0 {
			t.Errorf("%v: %d messages with one rank", m, res.Messages)
		}
	}
}

func TestVirtualTimePositiveAndModelDependent(t *testing.T) {
	g := gen.Social(1500, 10, 11)
	times := map[Model]float64{}
	for _, m := range Models {
		res, err := Run(g, opts(8, m))
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.MaxVirtualTime <= 0 {
			t.Fatalf("%v: nonpositive virtual time", m)
		}
		times[m] = res.Report.MaxVirtualTime
	}
	if times[MBP] <= times[NSR] {
		t.Errorf("MBP (%g) should model slower than NSR (%g)", times[MBP], times[NSR])
	}
}

func TestNCLBufferAccounting(t *testing.T) {
	g := gen.SBP(600, 8, 8, 0.5, 13)
	res, err := Run(g, opts(6, NCL))
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range res.Report.Stats {
		if rs.AllocHighWater <= 0 {
			t.Errorf("rank %d: no buffer accounting", rs.Rank)
		}
	}
}

func TestParallelEqualsSerialQuick(t *testing.T) {
	// Property: on random SBP graphs, every model at random rank counts
	// reproduces the serial matching exactly.
	f := func(seed int64, pRaw, mRaw uint8) bool {
		p := int(pRaw%6) + 1
		m := Models[int(mRaw)%len(Models)]
		g := gen.SBP(120, 5, 6, 0.4, seed)
		want := Serial(g)
		got, err := Run(g, opts(p, m))
		if err != nil {
			return false
		}
		if got.Weight != want.Weight || got.Cardinality != want.Cardinality {
			return false
		}
		for v := range want.Mate {
			if got.Mate[v] != want.Mate[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunicationMatrixShape(t *testing.T) {
	// On an RGG strip distribution, ranks only talk to adjacent ranks:
	// the message matrix must be tri-diagonal (Fig 2's structure for
	// matching is neighbor-banded for RGG).
	n := 3000
	g := gen.RGG(n, gen.RGGRadiusForDegree(n, 6), 17)
	o := opts(8, NSR)
	o.TrackMatrices = true
	res, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	mm := res.Report.MsgMatrix()
	for i := range mm {
		for j := range mm[i] {
			if mm[i][j] > 0 && (j < i-1 || j > i+1) {
				t.Errorf("unexpected traffic %d->%d on a strip RGG", i, j)
			}
		}
	}
}

// TestPeerBufBytesMatchesMsgRow: under the point-to-point models every
// message a rank sends is a point-to-point send, so the per-peer pools
// Run charges from the receiving mailboxes (RankStats.PeerBufBytes) must
// count exactly the nonzero entries of the sender's message row. Both
// engines, an SBP and an RGG input, and one world above 1024 ranks.
func TestPeerBufBytesMatchesMsgRow(t *testing.T) {
	inputs := []struct {
		name  string
		g     *graph.CSR
		procs []int
	}{
		{"sbp", gen.SBP(2400, 8, 12, 0.3, 7), []int{16, 300}},
		{"rgg", gen.RGG(4400, gen.RGGRadiusForDegree(4400, 6), 11), []int{32, 1100}},
	}
	for _, in := range inputs {
		for _, p := range in.procs {
			for _, m := range []Model{NSR, MBP, NSRA} {
				for _, e := range []Engine{EngineHalfApprox, EngineMaximal} {
					o := opts(p, m)
					o.Engine, o.TrackMatrices = e, true
					res, err := Run(in.g, o)
					if err != nil {
						t.Fatalf("%s p=%d %v %v: %v", in.name, p, m, e, err)
					}
					for r, rs := range res.Report.Stats {
						peers := int64(0)
						for _, n := range rs.MsgRow {
							if n > 0 {
								peers++
							}
						}
						if rs.PeerBufBytes != peers*mpi.EagerBufPerPeer {
							t.Fatalf("%s p=%d %v %v rank %d: PeerBufBytes = %d, want %d (%d peers in MsgRow)",
								in.name, p, m, e, r, rs.PeerBufBytes, peers*mpi.EagerBufPerPeer, peers)
						}
					}
				}
			}
		}
	}
}

func TestRoundBasedModelsDeterministicTime(t *testing.T) {
	// The round-based transports are fully deterministic: two runs must
	// agree on modeled time, rounds, and message count bit-for-bit.
	g := gen.SBP(600, 10, 8, 0.5, 21)
	for _, m := range []Model{NCL, RMA, NCLI, NCLC} {
		a, err := Run(g, opts(6, m))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(g, opts(6, m))
		if err != nil {
			t.Fatal(err)
		}
		if a.Report.MaxVirtualTime != b.Report.MaxVirtualTime {
			t.Errorf("%v: virtual time differs across runs: %g vs %g",
				m, a.Report.MaxVirtualTime, b.Report.MaxVirtualTime)
		}
		if a.Rounds != b.Rounds || a.Messages != b.Messages {
			t.Errorf("%v: rounds/messages differ: (%d,%d) vs (%d,%d)",
				m, a.Rounds, a.Messages, b.Rounds, b.Messages)
		}
	}
}

func TestNCLIPipeliningCanBeatNCL(t *testing.T) {
	// On a volume-heavy input the pipelined nonblocking variant should
	// not be slower than the blocking collectives it extends.
	g := gen.Social(4000, 12, 23)
	ncl, err := Run(g, opts(8, NCL))
	if err != nil {
		t.Fatal(err)
	}
	ncli, err := Run(g, opts(8, NCLI))
	if err != nil {
		t.Fatal(err)
	}
	if ncli.Report.MaxVirtualTime > ncl.Report.MaxVirtualTime*1.3 {
		t.Errorf("NCLI (%g) should be within 1.3x of NCL (%g) or better",
			ncli.Report.MaxVirtualTime, ncl.Report.MaxVirtualTime)
	}
}
