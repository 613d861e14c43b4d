package analysis

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// testGraph is a fig4c-style stochastic block partition graph, small
// enough for unit tests but irregular enough that ranks genuinely wait
// on each other.
func testGraph(tb testing.TB) *graph.CSR {
	tb.Helper()
	return gen.SBP(2000, 16, 8, 0.05, 42)
}

// runModel executes a traced matching run under the given model.
func runModel(tb testing.TB, g *graph.CSR, model matching.Model, procs int) *matching.ParallelResult {
	tb.Helper()
	res, err := matching.Run(g, matching.Options{
		Procs:       procs,
		Model:       model,
		TraceEvents: 1 << 16,
		RoundLog:    1024,
		Deadline:    2 * time.Minute,
	})
	if err != nil {
		tb.Fatalf("%v run: %v", model, err)
	}
	return res
}

func analyzeModel(tb testing.TB, res *matching.ParallelResult, model matching.Model) *Record {
	tb.Helper()
	rec, err := Analyze(res.Report, Options{Model: model.String(), Telemetry: res.Telemetry})
	if err != nil {
		tb.Fatalf("Analyze(%v): %v", model, err)
	}
	return rec
}

func TestAnalyzeRequiresTrace(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("Analyze(nil) = nil error")
	}
	rep, err := mpi.Run(2, func(c *mpi.Comm) error {
		c.Barrier()
		return nil
	}, mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(rep, Options{}); err == nil {
		t.Error("Analyze(untraced report) = nil error, want tracing hint")
	}
}

// TestCriticalPathExactLength is the tentpole invariant: the backward
// walk tiles the whole run, so the reported path length equals the
// end-to-end virtual time exactly (==, not approximately) and the
// activity breakdown sums back to it.
func TestCriticalPathExactLength(t *testing.T) {
	g := testGraph(t)
	for _, model := range []matching.Model{matching.NSR, matching.MBP, matching.NCL, matching.RMA} {
		t.Run(model.String(), func(t *testing.T) {
			res := runModel(t, g, model, 8)
			rec := analyzeModel(t, res, model)
			if rec.CriticalPath.LengthSec != res.Report.MaxVirtualTime {
				t.Errorf("LengthSec = %v, want exactly MaxVirtualTime = %v",
					rec.CriticalPath.LengthSec, res.Report.MaxVirtualTime)
			}
			if rec.TimeSec != res.Report.MaxVirtualTime {
				t.Errorf("TimeSec = %v, want %v", rec.TimeSec, res.Report.MaxVirtualTime)
			}
			var sum float64
			for _, s := range rec.CriticalPath.ByKind {
				sum += s
			}
			if tol := 1e-9 * rec.CriticalPath.LengthSec; math.Abs(sum-rec.CriticalPath.LengthSec) > tol {
				t.Errorf("ByKind sums to %v, want %v (Δ=%g)", sum, rec.CriticalPath.LengthSec,
					sum-rec.CriticalPath.LengthSec)
			}
			if rec.CriticalPath.Truncated {
				t.Error("path truncated on an untruncated trace")
			}
			var shares float64
			for _, rs := range rec.CriticalPath.RankShares {
				shares += rs.Seconds
			}
			if shares > rec.CriticalPath.LengthSec*(1+1e-9) {
				t.Errorf("rank shares sum %v exceeds path length %v", shares, rec.CriticalPath.LengthSec)
			}
		})
	}
}

// TestNSRLateSenderDominates pins the acceptance criterion: on an SBP
// run under the Send-Recv model, at least half the blocked wait time is
// late-sender, with named causing ranks.
func TestNSRLateSenderDominates(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NSR, 8)
	rec := analyzeModel(t, res, matching.NSR)
	ls := rec.WaitState(ClassLateSender)
	if ls == nil {
		t.Fatal("no late_sender wait state recorded for NSR")
	}
	if ls.Share < 0.5 {
		t.Errorf("late_sender share = %.3f, want >= 0.5 (states: %+v)", ls.Share, rec.WaitStates)
	}
	if len(ls.TopCauses) == 0 {
		t.Fatal("late_sender has no named causing ranks")
	}
	for _, c := range ls.TopCauses {
		if c.Rank < 0 || c.Rank >= rec.Procs {
			t.Errorf("cause rank %d out of range", c.Rank)
		}
		if c.Seconds <= 0 {
			t.Errorf("cause rank %d has non-positive seconds %v", c.Rank, c.Seconds)
		}
	}
}

// TestNCLExchangeWaits checks the neighborhood-collective model blocks
// in its exchange, not on late senders.
func TestNCLExchangeWaits(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NCL, 8)
	rec := analyzeModel(t, res, matching.NCL)
	ex := rec.WaitState(ClassExchange)
	if ex == nil || ex.Seconds <= 0 {
		t.Fatalf("no wait_at_exchange time for NCL (states: %+v)", rec.WaitStates)
	}
	if ls := rec.WaitState(ClassLateSender); ls != nil && ls.Seconds > ex.Seconds {
		t.Errorf("late_sender (%v) exceeds wait_at_exchange (%v) under NCL", ls.Seconds, ex.Seconds)
	}
}

// TestRMAFenceClass checks the model-dependent relabeling: under RMA the
// post-flush exchange waits are reported as fence synchronization.
func TestRMAFenceClass(t *testing.T) {
	res := runModel(t, testGraph(t), matching.RMA, 8)
	rec := analyzeModel(t, res, matching.RMA)
	if rec.WaitState(ClassExchange) != nil {
		t.Error("RMA record still reports wait_at_exchange; want it folded into wait_at_fence")
	}
	if f := rec.WaitState(ClassFence); f == nil || f.Seconds <= 0 {
		t.Errorf("no wait_at_fence time for RMA (states: %+v)", rec.WaitStates)
	}
	for _, e := range rec.CriticalPath.TopEdges {
		if e.Class == ClassExchange {
			t.Errorf("critical-path edge %+v kept class %s under RMA", e, ClassExchange)
		}
	}
}

// TestLateReceiverSynthetic reconstructs the one derived state that
// blocks nobody: rank 0 sends early, rank 1 computes before receiving,
// so the message sat in the unexpected queue for compute-minus-flight.
func TestLateReceiverSynthetic(t *testing.T) {
	rep, err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, 3, []int64{1, 2, 3, 4})
		} else {
			c.Compute(5000)
			c.Recv(0, 3)
		}
		c.Barrier()
		return nil
	}, mpi.WithEventTrace(64), mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Analyze(rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lr := rec.WaitState(ClassLateReceiver)
	if lr == nil {
		t.Fatal("no late_receiver state recorded")
	}
	if !lr.Derived {
		t.Error("late_receiver not marked derived")
	}
	// Expected parking time from the actual event timestamps.
	cost := mpi.DefaultCostModel()
	var send, recv *mpi.Event
	for _, e := range rep.Events(0) {
		if e.Kind == mpi.EvSend {
			send = &e
			break
		}
	}
	for _, e := range rep.Events(1) {
		if e.Kind == mpi.EvRecv {
			recv = &e
			break
		}
	}
	if send == nil || recv == nil {
		t.Fatal("missing send/recv events")
	}
	want := recv.Start - (send.End + cost.AlphaP2P + cost.BetaP2P*float64(send.Bytes))
	if want <= 0 {
		t.Fatalf("scenario did not produce a late receiver (want %v)", want)
	}
	if math.Abs(lr.Seconds-want) > 1e-12 {
		t.Errorf("late_receiver seconds = %v, want %v", lr.Seconds, want)
	}
	if len(lr.TopCauses) != 1 || lr.TopCauses[0].Rank != 1 {
		t.Errorf("late_receiver causes = %+v, want rank 1 (the late party)", lr.TopCauses)
	}
}

// TestProbeSpinDerived: an Iprobe that can never match is pure polling
// overhead and must surface as the probe_spin derived state.
func TestProbeSpinDerived(t *testing.T) {
	rep, err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			if ok, _ := c.Iprobe(mpi.AnySource, mpi.AnyTag); ok {
				return nil // impossible: nobody sends
			}
		}
		c.Barrier()
		return nil
	}, mpi.WithEventTrace(64), mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Analyze(rep, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := rec.WaitState(ClassProbeSpin)
	if ps == nil || ps.Count != 1 || !ps.Derived {
		t.Errorf("probe_spin state = %+v, want one derived miss", ps)
	}
}

// TestEfficiencyFactorization checks the POP identities hold up to
// floating-point noise and the factors stay in range.
func TestEfficiencyFactorization(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NSR, 8)
	rec := analyzeModel(t, res, matching.NSR)
	e := rec.Efficiency
	approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), 1) }
	if !approx(e.ParallelEff, e.LoadBalance*e.CommEff) {
		t.Errorf("PE %v != LB %v * CommE %v", e.ParallelEff, e.LoadBalance, e.CommEff)
	}
	if !approx(e.CommEff, e.SerializationEff*e.TransferEff) {
		t.Errorf("CommE %v != SerE %v * TransferE %v", e.CommEff, e.SerializationEff, e.TransferEff)
	}
	for name, v := range map[string]float64{
		"parallel": e.ParallelEff, "load_balance": e.LoadBalance, "comm": e.CommEff,
		"serialization": e.SerializationEff, "transfer": e.TransferEff,
	} {
		if v <= 0 || v > 1+1e-9 {
			t.Errorf("%s efficiency = %v, want in (0, 1]", name, v)
		}
	}
}

// TestRoundsResolution checks the per-round wait accounting is a
// partition: every window's wait is non-negative and the total never
// exceeds the run's blocked time.
func TestRoundsResolution(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NCL, 8)
	if res.Telemetry == nil || len(res.Telemetry.Points) == 0 {
		t.Fatal("run produced no telemetry")
	}
	rec := analyzeModel(t, res, matching.NCL)
	if len(rec.Rounds) != len(res.Telemetry.Points) {
		t.Fatalf("rounds = %d, want one per telemetry point (%d)",
			len(rec.Rounds), len(res.Telemetry.Points))
	}
	var sum float64
	for _, r := range rec.Rounds {
		if r.WaitSec < 0 || r.WaitFrac < 0 || r.WaitFrac > 1+1e-9 {
			t.Errorf("round %d: wait %v frac %v out of range", r.Round, r.WaitSec, r.WaitFrac)
		}
		if r.WaitSec > 0 && r.Dominant == "" {
			t.Errorf("round %d has wait but no dominant class", r.Round)
		}
		sum += r.WaitSec
	}
	if sum > rec.TotalWaitSec*(1+1e-9) {
		t.Errorf("per-round wait sums to %v, exceeds run total %v", sum, rec.TotalWaitSec)
	}
}

// TestRoundEfficiencySynthetic pins the window clipping on a hand-built
// series: one wait interval spanning two round boundaries.
func TestRoundEfficiencySynthetic(t *testing.T) {
	rep, err := mpi.Run(2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Compute(5000)
			c.Isend(1, 1, []int64{1})
		} else {
			c.Recv(0, 1) // blocks from ~0 until the send arrives
		}
		c.Barrier()
		return nil
	}, mpi.WithEventTrace(64), mpi.WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// One boundary strictly inside rank 1's late-sender wait: the wait
	// must be split across the two windows.
	var wait *mpi.Event
	for _, e := range rep.Events(1) {
		if e.Kind == mpi.EvWait && e.Class == mpi.WaitLateSender {
			wait = &e
			break
		}
	}
	if wait == nil {
		t.Fatal("no late-sender wait on rank 1")
	}
	mid := (wait.Start + wait.End) / 2
	series := &telemetry.Series{Procs: 2, Points: []telemetry.Point{
		{Round: 0, Time: mid},
		{Round: 1, Time: rep.MaxVirtualTime},
	}}
	rec, err := Analyze(rep, Options{Telemetry: series})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds) != 2 {
		t.Fatalf("rounds = %d, want 2", len(rec.Rounds))
	}
	firstHalf := mid - wait.Start
	if math.Abs(rec.Rounds[0].WaitSec-firstHalf) > 1e-12 {
		t.Errorf("window 0 wait = %v, want clipped %v", rec.Rounds[0].WaitSec, firstHalf)
	}
	if rec.Rounds[0].Dominant != ClassLateSender {
		t.Errorf("window 0 dominant = %q, want %s", rec.Rounds[0].Dominant, ClassLateSender)
	}
}

// TestAnalyzeDeterministic: same report, same record — byte for byte
// through JSON (maps included).
func TestAnalyzeDeterministic(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NCL, 4)
	a := analyzeModel(t, res, matching.NCL)
	b := analyzeModel(t, res, matching.NCL)
	if !reflect.DeepEqual(a, b) {
		t.Error("two analyses of the same report differ")
	}
}

// TestRecordJSONRoundTrip: the schema-versioned record survives
// marshal/unmarshal with its key fields intact.
func TestRecordJSONRoundTrip(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NSR, 4)
	rec := analyzeModel(t, res, matching.NSR)
	blob, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", back.Schema, SchemaVersion)
	}
	if back.CriticalPath.LengthSec != rec.CriticalPath.LengthSec {
		t.Errorf("LengthSec lost in round trip: %v != %v",
			back.CriticalPath.LengthSec, rec.CriticalPath.LengthSec)
	}
	if len(back.WaitStates) != len(rec.WaitStates) {
		t.Errorf("wait states lost: %d != %d", len(back.WaitStates), len(rec.WaitStates))
	}
}

// TestTruncationSurfaced: a ring too small for the run must set the
// loud flags on the record.
func TestTruncationSurfaced(t *testing.T) {
	res, err := matching.Run(testGraph(t), matching.Options{
		Procs:       4,
		Model:       matching.NCL,
		TraceEvents: 8, // absurdly small: guaranteed drops
		Deadline:    2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Analyze(res.Report, Options{Model: "NCL"})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.EventsTruncated || rec.DroppedEvents == 0 {
		t.Errorf("truncated run not flagged: truncated=%v dropped=%d",
			rec.EventsTruncated, rec.DroppedEvents)
	}
	if !rec.CriticalPath.Truncated {
		t.Error("critical path not marked truncated on a dropped-events run")
	}
}

func TestWriteChromeTraceValid(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NSR, 4)
	rec := analyzeModel(t, res, matching.NSR)
	// The second label holds what a JSON string must escape: a quote, a
	// backslash, a newline, a control byte and a byte that is not UTF-8.
	for _, label := range []string{"nsr test", "a\"b\\c\nd\x01e\xfff"} {
		buf := overlayTrace(t, label, res.Report, rec)
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("exporter emitted invalid JSON (first 400 bytes):\n%.400s", buf.String())
		}
		out := buf.String()
		for _, want := range []string{`"outstanding msgs"`, `"wait depth"`, `"critical path"`, `"ph":"C"`} {
			if !strings.Contains(out, want) {
				t.Errorf("trace missing %s", want)
			}
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		enc, _ := json.Marshal(label)
		var want string
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		if got := doc.TraceEvents[0].Args["name"]; doc.TraceEvents[0].Name != "process_name" || got != want {
			t.Errorf("process label decoded as %q, want %q", got, want)
		}
	}
}

// overlayTrace writes rep as the one run of a trace, drawn with rec's
// overlay.
func overlayTrace(t *testing.T, label string, rep *mpi.Report, rec *Record) *bytes.Buffer {
	t.Helper()
	tr := mpi.NewChromeTrace()
	tr.Add(label, rep, rec.AppendTrace)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestChromeTraceRankTracksMatchBase: the overlay only adds tracks. The
// rank tracks of a run drawn with and without it — every thread_name row
// and every event slice — are the same bytes.
func TestChromeTraceRankTracksMatchBase(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NSR, 4)
	rec := analyzeModel(t, res, matching.NSR)
	var base bytes.Buffer
	if err := res.Report.WriteChromeTrace(&base); err != nil {
		t.Fatal(err)
	}
	overlay := overlayTrace(t, "overlay", res.Report, rec)
	// rankLines keeps the rows of tracks 0..Procs-1; the overlay's extra
	// rows are counters (no tid) and the critical-path track (tid Procs).
	rankLines := func(doc string) []string {
		var out []string
		for _, line := range strings.Split(doc, "\n") {
			for rank := 0; rank < res.Report.Procs; rank++ {
				if strings.Contains(line, `"pid":0,"tid":`+strconv.Itoa(rank)+`,`) {
					out = append(out, strings.TrimSuffix(line, ","))
				}
			}
		}
		return out
	}
	got, want := rankLines(overlay.String()), rankLines(base.String())
	events := 0
	for rank := 0; rank < res.Report.Procs; rank++ {
		events += len(res.Report.Events(rank))
	}
	if len(want) != events+res.Report.Procs {
		t.Fatalf("base exporter wrote %d rank rows for %d events on %d ranks", len(want), events, res.Report.Procs)
	}
	if len(got) != len(want) {
		t.Fatalf("overlay wrote %d rank rows, base %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank row %d differs:\noverlay: %s\nbase:    %s", i, got[i], want[i])
		}
	}
}

func TestRenderSmoke(t *testing.T) {
	res := runModel(t, testGraph(t), matching.NSR, 4)
	rec := analyzeModel(t, res, matching.NSR)
	var buf bytes.Buffer
	rec.Render(&buf, "")
	out := buf.String()
	for _, want := range []string{"critical path", "efficiency", "wait state", "late_sender"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var cmp bytes.Buffer
	RenderComparison(&cmp, []*Record{rec})
	if !strings.Contains(cmp.String(), "NSR") {
		t.Errorf("comparison missing model name:\n%s", cmp.String())
	}
}
