package matching

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// fresh returns a graph with g's arrays and none of its memo: every
// index, distribution and Start log is built afresh on it.
func fresh(g *graph.CSR) *graph.CSR {
	return &graph.CSR{Offsets: g.Offsets, Adj: g.Adj, Weights: g.Weights}
}

// published returns g's Start logs for procs ranks, nil where a rank
// has none.
func published(g *graph.CSR, procs int) []*startLog {
	slots := startLogs(g, procs)
	out := make([]*startLog, len(slots))
	for i := range slots {
		out[i] = slots[i].Load()
	}
	return out
}

// countPublished counts the non-nil logs.
func countPublished(logs []*startLog) int {
	n := 0
	for _, l := range logs {
		if l != nil {
			n++
		}
	}
	return n
}

// bitsOf returns the bit patterns of fs.
func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// eventCount is the run's traced events, kept and dropped, over all ranks.
func eventCount(rep *mpi.Report) (kept, dropped int64) {
	for r := 0; r < rep.Procs; r++ {
		kept += int64(rep.Events(r).Len())
		dropped += rep.EventDrops(r)
	}
	return kept, dropped
}

// sameRun fails unless warm, a run that replayed its Start, is cold, the
// same run with Start computed. Row 0 of the telemetry (the state after
// Start) must match always; a round-flavour run, whose virtual time is
// deterministic, must match in every virtual-time bit, ledger, event
// count and telemetry row. An async run's mailbox occupancy is the
// schedule's, so its row 0 is compared without it, and its result only
// when the protocol makes the result schedule-invariant (not under
// EagerReject).
func sameRun(t *testing.T, name string, o Options, cold, warm *ParallelResult) {
	t.Helper()
	async := o.Model.Flavor() == transport.FlavorAsync
	row0 := func(s *telemetry.Series) telemetry.Point {
		p := s.Points[0]
		if async {
			p.MaxQueueBytes = 0
		}
		return p
	}
	if c, w := row0(cold.Telemetry), row0(warm.Telemetry); c != w {
		t.Errorf("%s: telemetry row 0: cold %+v, warm %+v", name, c, w)
	}
	if !async || !o.EagerReject {
		if !slices.Equal(cold.Mate, warm.Mate) || math.Float64bits(cold.Weight) != math.Float64bits(warm.Weight) {
			t.Errorf("%s: results differ: weight %v cold, %v warm", name, cold.Weight, warm.Weight)
		}
	}
	if async {
		return
	}
	cr, wr := cold.Report, warm.Report
	if math.Float64bits(cr.MaxVirtualTime) != math.Float64bits(wr.MaxVirtualTime) {
		t.Errorf("%s: MaxVirtualTime %v cold, %v warm", name, cr.MaxVirtualTime, wr.MaxVirtualTime)
	}
	if !slices.Equal(bitsOf(cr.FinalTimes), bitsOf(wr.FinalTimes)) {
		t.Errorf("%s: FinalTimes differ", name)
	}
	for r := range cr.Stats {
		if c, w := cr.Stats[r].CompTime, wr.Stats[r].CompTime; math.Float64bits(c) != math.Float64bits(w) {
			t.Errorf("%s: rank %d CompTime %v cold, %v warm", name, r, c, w)
			break
		}
	}
	if c, w := cr.Totals(), wr.Totals(); c != w {
		t.Errorf("%s: Totals %+v cold, %+v warm", name, c, w)
	}
	ck, cd := eventCount(cr)
	wk, wd := eventCount(wr)
	if ck != wk || cd != wd {
		t.Errorf("%s: events %d (+%d dropped) cold, %d (+%d) warm", name, ck, cd, wk, wd)
	}
	if !reflect.DeepEqual(cold.Telemetry, warm.Telemetry) {
		t.Errorf("%s: telemetry series differ", name)
	}
	if cold.Rounds != warm.Rounds || cold.Messages != warm.Messages {
		t.Errorf("%s: %d rounds %d records cold, %d %d warm", name, cold.Rounds, cold.Messages, warm.Rounds, warm.Messages)
	}
}

// TestStartReplayMatchesCold is the differential behind the Start memo:
// every model, with and without EagerReject, at 4, 16 and 320 ranks
// (320 is past the 256-rank switch to stepped round loops), unperturbed
// and under sched.Full with a fixed seed, on a social graph (most of
// Start is sends) and an RGG strip (most of it is local, and units
// follow the last send). Each run on a graph whose memo is warm must be
// the run a fresh graph gives, which records its memo on the way
// (sameRun). The warm logs are recorded without EagerReject, so the
// EagerReject runs replay the other protocol's Start.
func TestStartReplayMatchesCold(t *testing.T) {
	for _, g := range []*graph.CSR{gen.Social(2400, 8, 46), gen.RGG(3200, gen.RGGRadiusForDegree(3200, 8), 46)} {
		replayMatchesCold(t, g)
	}
}

func replayMatchesCold(t *testing.T, g *graph.CSR) {
	for _, p := range []int{4, 16, 320} {
		if _, err := Run(g, Options{Procs: p, Model: NCL, Deadline: time.Minute}); err != nil {
			t.Fatal(err)
		}
		if n := countPublished(published(g, p)); n != p {
			t.Fatalf("p=%d: %d of %d ranks published a Start log", p, n, p)
		}
		for _, eager := range []bool{false, true} {
			for _, m := range Models {
				for _, seed := range []uint64{0, 46} {
					o := Options{Procs: p, Model: m, EagerReject: eager, Deadline: time.Minute, TraceEvents: 1 << 12, RoundLog: 1 << 12}
					if seed != 0 {
						o.Perturb, o.PerturbSeed = sched.Full, seed
					}
					name := fmt.Sprintf("|V|=%d/%v/p=%d/eager=%v/seed=%d", g.NumVertices(), m, p, eager, seed)
					c := fresh(g)
					cold, err := Run(c, o)
					if err != nil {
						t.Fatalf("%s cold: %v", name, err)
					}
					if n := countPublished(published(c, p)); n != p {
						t.Fatalf("%s: the cold run published %d of %d Start logs", name, n, p)
					}
					warm, err := Run(g, o)
					if err != nil {
						t.Fatalf("%s warm: %v", name, err)
					}
					sameRun(t, name, o, cold, warm)
				}
			}
		}
	}
}

// failingSender panics on its after-th send, as a transport failing
// under a rank's Start would.
type failingSender struct{ after int }

func (s *failingSender) Send(int, int64, int64, int64) {
	if s.after--; s.after < 0 {
		panic("send failed")
	}
}

// TestStartLogFailedStartPublishesNothing: a Start that does not return
// publishes no log, so the next one records afresh; a Start that did
// return publishes the log a replay reproduces, sends and state.
func TestStartLogFailedStartPublishesNothing(t *testing.T) {
	g := gen.Social(2000, 8, 47)
	order, mirror := g.KeyOrder(), g.Mirror()
	l := distgraph.NewBlockDist(g, 2).BuildLocal(0)
	_, err := mpi.RunChecked(2, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			c.Barrier()
			return nil
		}
		defer c.Barrier()
		var slot atomic.Pointer[startLog]
		start := func(tr transport.Sender) *engine {
			e := newEngine(c, l, tr, false, order, mirror, make([]int32, g.NumVertices()))
			e.slot = &slot
			e.Start()
			return e
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Start over a failing sender did not panic")
				}
			}()
			start(&failingSender{after: 3})
		}()
		if slot.Load() != nil {
			t.Error("a Start that did not return published a log")
			return nil
		}
		live := &captureSender{}
		el := start(live)
		log := slot.Load()
		if log == nil {
			t.Error("a Start that returned published no log")
			return nil
		}
		if len(live.recs) < 4 || len(log.sends) != len(live.recs) {
			t.Errorf("%d sends live, %d logged; want at least 4, equal", len(live.recs), len(log.sends))
		}
		replayed := &captureSender{}
		er := start(replayed)
		if slot.Load() != log {
			t.Error("a replay replaced the published log")
		}
		if !reflect.DeepEqual(live.recs, replayed.recs) {
			t.Error("the replay's sends differ from the recorded Start's")
		}
		same := slices.Equal(el.ptr, er.ptr) && slices.Equal(el.cand, er.cand) && slices.Equal(el.state, er.state) &&
			slices.Equal(el.closed, er.closed) && slices.Equal(el.asked, er.asked) && slices.Equal(el.mate, er.mate) &&
			el.pending == er.pending && el.nmatched == er.nmatched && el.sent == er.sent && el.kind == er.kind &&
			len(er.work) == 0 && er.units == 0
		if !same {
			t.Error("the replay's state differs from the recorded Start's")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStartLogFailedRun: a run that fails before any rank starts (its
// transport cannot be built) publishes nothing; a run that hits its
// deadline publishes only logs equal to a clean run's; and the next run
// records what is missing and reproduces a cold run.
func TestStartLogFailedRun(t *testing.T) {
	g := gen.Social(2000, 8, 48)
	const p = 16
	if _, err := Run(g, Options{Procs: p, Model: Model(99), Deadline: time.Minute}); err == nil {
		t.Fatal("a run under an unknown model succeeded")
	}
	if n := countPublished(published(g, p)); n != 0 {
		t.Fatalf("a run that failed before Start published %d logs", n)
	}
	ref := fresh(g)
	o := Options{Procs: p, Model: NCL, Deadline: time.Minute, RoundLog: 1 << 10}
	cold, err := Run(ref, o)
	if err != nil {
		t.Fatal(err)
	}
	want := published(ref, p)

	late := Options{Procs: p, Model: NSR, Deadline: time.Nanosecond}
	if _, err := Run(g, late); err == nil {
		t.Log("the 1 ns run finished before its deadline")
	}
	for r, log := range published(g, p) {
		if log != nil && !reflect.DeepEqual(log, want[r]) {
			t.Errorf("rank %d: the run past its deadline published a log unlike a clean run's", r)
		}
	}
	warm, err := Run(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(published(g, p), want) {
		t.Error("the run after the failed ones did not leave a clean run's logs")
	}
	sameRun(t, "after failed runs", o, cold, warm)
}

// TestStartLogConcurrentRuns: two runs on one fresh graph at once both
// complete with the serial matching, and the logs left are the logs one
// run alone records.
func TestStartLogConcurrentRuns(t *testing.T) {
	g := gen.Social(2000, 8, 49)
	const p = 16
	want := Serial(g)
	var wg sync.WaitGroup
	for _, m := range []Model{NCL, NSR} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(g, opts(p, m))
			if err != nil {
				t.Errorf("%v: %v", m, err)
				return
			}
			if !slices.Equal(res.Mate, want.Mate) {
				t.Errorf("%v: result differs from Serial", m)
			}
		}()
	}
	wg.Wait()
	alone := fresh(g)
	if _, err := Run(alone, opts(p, RMA)); err != nil {
		t.Fatal(err)
	}
	got, ref := published(g, p), published(alone, p)
	if countPublished(got) != p || !reflect.DeepEqual(got, ref) {
		t.Errorf("concurrent runs left %d logs unlike a lone run's", countPublished(got))
	}
}

// footprint is the heap a log keeps, in bytes.
func (s *startLog) footprint() int64 {
	return int64(unsafe.Sizeof(*s)) + int64(cap(s.sends))*8 + int64(cap(s.from))*4 +
		int64(cap(s.ptr)+cap(s.cand))*4 + int64(cap(s.state)) + int64(cap(s.closed))*8
}

// TestStartLogFootprint bounds what the memo keeps per graph, rank
// count and protocol: at most 10 B per owned vertex, 12 B per logged
// send and a bit per local arc.
func TestStartLogFootprint(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *graph.CSR
	}{
		{"rgg", gen.RGG(40_000, gen.RGGRadiusForDegree(40_000, 8), 50)},
		{"social", gen.Social(20_000, 12, 50)},
	} {
		for _, p := range []int{4, 16} {
			if _, err := Run(in.g, opts(p, NCL)); err != nil {
				t.Fatal(err)
			}
			d := distgraph.SharedBlockDist(in.g, p)
			var kept, bound, sends int64
			for r, log := range published(in.g, p) {
				l := d.Local(r)
				kept += log.footprint()
				bound += 10*int64(l.NumOwned()) + 12*int64(len(log.sends)) + l.LocalArcs/8
				sends += int64(len(log.sends))
			}
			t.Logf("%s p=%d: %d B kept for %d vertices, %d arcs and %d sends (bound %d B)",
				in.name, p, kept, in.g.NumVertices(), in.g.NumArcs(), sends, bound)
			if sends == 0 {
				t.Errorf("%s p=%d: no sends logged", in.name, p)
			}
			if kept > bound {
				t.Errorf("%s p=%d: the memo keeps %d B, bound %d B", in.name, p, kept, bound)
			}
		}
	}
}
