package harness

import (
	"encoding/json"
	"io"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/sched"
)

func testConfig() Config {
	return Config{Scale: 0.12, Deadline: 10 * time.Minute}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig4a", "fig4b", "fig4c", "tab2", "tab3", "fig5", "fig6", "tab4",
		"fig7", "tab5", "tab6", "fig8", "fig9", "tab7", "fig10", "tab8", "fig11",
		"ext-ncli", "ext-coloring", "ext-density", "ext-async", "ranks",
	}
	for _, id := range want {
		e := Find(id)
		if e == nil {
			t.Errorf("experiment %s not registered", id)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete: %+v", id, e)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestFindUnknown(t *testing.T) {
	if Find("nope") != nil {
		t.Error("unknown id found")
	}
	if _, err := RunOneRecord("nope", testConfig(), io.Discard); err == nil {
		t.Error("unknown id ran")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Headers: []string{"a", "long-header"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"== x: demo ==", "long-header", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// parseSpeedups extracts the trailing "N.NNx" cells from a scaling table.
func parseSpeedups(t *testing.T, tb *Table) [][]float64 {
	t.Helper()
	var out [][]float64
	for _, row := range tb.Rows {
		var ratios []float64
		for _, cell := range row {
			if strings.HasSuffix(cell, "x") {
				v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
				if err == nil {
					ratios = append(ratios, v)
				}
			}
		}
		out = append(out, ratios)
	}
	return out
}

func TestFig4aShapeRGG(t *testing.T) {
	// The headline shape: on RGG, the aggregated models beat NSR at the
	// largest process count.
	// Full workload scale: the asynchronous Send-Recv path's modeled
	// time varies slightly with goroutine interleaving, and small-scale
	// margins can flip under instrumentation (e.g. -race).
	cfg := testConfig()
	cfg.Scale = 1.0
	tables, err := Find("fig4a").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, tables[0])
	last := rows[len(rows)-1]
	for i, s := range last {
		if s <= 1 {
			t.Errorf("fig4a largest-p speedup %d = %g, want > 1 (RMA/NCL must beat NSR)", i, s)
		}
	}
}

func TestFig4cShapeSBP(t *testing.T) {
	// Contrasting shape: on SBP at the largest p, NSR wins.
	cfg := testConfig()
	cfg.Scale = 1.0
	tables, err := Find("fig4c").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := parseSpeedups(t, tables[0])
	last := rows[len(rows)-1]
	for i, s := range last {
		if s >= 1 {
			t.Errorf("fig4c largest-p speedup %d = %g, want < 1 (NSR must win)", i, s)
		}
	}
}

func TestTab3NearCompleteTopology(t *testing.T) {
	tables, err := Find("tab3").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Last row: p, |Ep|, dmax, davg, sigma: dmax must be p-1.
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	p, _ := strconv.Atoi(last[0])
	dmax, _ := strconv.Atoi(last[2])
	if dmax != p-1 {
		t.Errorf("SBP process graph dmax = %d, want p-1 = %d", dmax, p-1)
	}
}

func TestFig7RCMShape(t *testing.T) {
	tables, err := Find("fig7").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		// The bandwidth row reads "bandwidth=N" in both columns.
		var orig, rcm int
		for _, row := range tb.Rows {
			if strings.HasPrefix(row[0], "bandwidth=") {
				orig, _ = strconv.Atoi(strings.TrimPrefix(row[0], "bandwidth="))
				rcm, _ = strconv.Atoi(strings.TrimPrefix(row[1], "bandwidth="))
			}
		}
		if rcm == 0 || rcm >= orig/4 {
			t.Errorf("%s: RCM bandwidth %d not well below original %d", tb.Title, rcm, orig)
		}
	}
}

func TestTab5SigmaShrinks(t *testing.T) {
	tables, err := Find("tab5").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	// Rows alternate original/RCM per input; sigma is the last column.
	for i := 0; i+1 < len(rows); i += 2 {
		so, _ := strconv.ParseFloat(rows[i][len(rows[i])-1], 64)
		sr, _ := strconv.ParseFloat(rows[i+1][len(rows[i+1])-1], 64)
		if sr >= so {
			t.Errorf("row %d: RCM sigma(|E'|) %g not below original %g", i, sr, so)
		}
	}
}

func TestFig10ProfileSane(t *testing.T) {
	cfg := testConfig()
	tables, err := Find("fig10").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fractions at tau=1 over the three schemes sum to >= 1 (winners).
	var sum float64
	for _, row := range tables[0].Rows {
		v, _ := strconv.ParseFloat(row[1], 64)
		if v < 0 || v > 1 {
			t.Errorf("profile fraction %g out of range", v)
		}
		sum += v
	}
	if sum < 0.99 {
		t.Errorf("winners at tau=1 sum to %g, want >= 1", sum)
	}
}

func TestTab8EnergyColumns(t *testing.T) {
	tables, err := Find("tab8").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		mem, _ := strconv.ParseFloat(row[2], 64)
		energy, _ := strconv.ParseFloat(row[3], 64)
		comp, _ := strconv.ParseFloat(row[5], 64)
		mpiPct, _ := strconv.ParseFloat(row[6], 64)
		if mem <= 0 || energy <= 0 {
			t.Errorf("nonpositive mem/energy in row %v", row)
		}
		if comp+mpiPct < 99.9 || comp+mpiPct > 100.1 {
			t.Errorf("comp%%+mpi%% = %g in row %v", comp+mpiPct, row)
		}
	}
}

func TestCommMatrixExperiments(t *testing.T) {
	for _, id := range []string{"fig2", "fig11", "fig9"} {
		tables, err := Find(id).Run(testConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			t.Errorf("%s produced no grid", id)
		}
	}
}

func TestScaledProcsAndSizes(t *testing.T) {
	cfg := Config{Scale: 0.1}
	if p := cfg.scaledProcs(32); p < 2 || p > 32 {
		t.Errorf("scaledProcs = %d", p)
	}
	if cfg.scaled(100) < 8 {
		t.Error("scaled floor broken")
	}
	full := Config{Scale: 1}
	if full.scaledProcs(32) != 32 {
		t.Error("full scale must not shrink procs")
	}
}

func TestWorkloadsMemoized(t *testing.T) {
	cfg := testConfig()
	a := cfg.orkut()
	b := cfg.orkut()
	if a != b {
		t.Error("workload memoization broken (regenerated)")
	}
	other := Config{Scale: cfg.Scale * 2}
	if other.orkut() == a {
		t.Error("different scales must not share graphs")
	}
}

func TestSpeedupFormat(t *testing.T) {
	if s := speedup(2, 1); s != "2.00x" {
		t.Errorf("speedup = %q", s)
	}
	if s := speedup(1, 0); s != "-" {
		t.Errorf("speedup by zero = %q", s)
	}
	if s := speedup(0, 1); s != "-" {
		t.Errorf("speedup over a baseline that did not run = %q", s)
	}
	if ms(0.001) != "1.000ms" {
		t.Error("ms format")
	}
}

// TestRatiosNeedTheirBaseline: with a model filter that leaves NSR out,
// the ratios over NSR in fig8 and tab7 have no baseline and read "-",
// never "0.00x".
func TestRatiosNeedTheirBaseline(t *testing.T) {
	for _, id := range []string{"fig8", "tab7"} {
		cfg := Config{Scale: 0.05, Deadline: 10 * time.Minute, Models: []matching.Model{matching.RMA, matching.NCL}}
		tables, err := Find(id).Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			for _, row := range tb.Rows {
				if last := row[len(row)-1]; strings.HasSuffix(last, "x") || (id == "tab7" && row[2] != "-") {
					t.Errorf("%s: row %v has a ratio over NSR, which did not run", id, row)
				}
				for _, cell := range row {
					if cell == "0.00x" {
						t.Errorf("%s: row %v has a 0.00x cell", id, row)
					}
				}
			}
		}
	}
}

func TestTab2Inventory(t *testing.T) {
	tables, err := Find("tab2").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < 10 {
		t.Errorf("inventory has %d rows, want all input families", len(tables[0].Rows))
	}
}

func TestExtNCLIRuns(t *testing.T) {
	tables, err := Find("ext-ncli").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Error("no rows")
	}
}

// TestExtAsyncRuns exercises the asynchronous-engine comparison at test
// scale: three inputs, each row's matchings verified maximal inside the
// experiment (a detector false termination fails the run itself), and
// the async/fenced pair distinguishable in the emitted run records by
// the "-rounds" model suffix.
func TestExtAsyncRuns(t *testing.T) {
	cfg := testConfig()
	models := map[string]int{}
	cfg.OnRun = func(info RunInfo) { models[info.Model]++ }
	tables, err := Find("ext-async").Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 3 {
		t.Errorf("got %d rows, want 3 inputs", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "ok" {
			t.Errorf("input %s missing its verified-maximal stamp: %v", row[0], row)
		}
	}
	for _, m := range []string{"NSR", "NSRA", "NSR-rounds"} {
		if models[m] != 3 {
			t.Errorf("model %s observed %d times, want 3", m, models[m])
		}
	}
}

func TestExtColoringRuns(t *testing.T) {
	tables, err := Find("ext-coloring").Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) == 0 {
		t.Error("no rows")
	}
}

// TestEveryExperimentRunsAtSmallScales: every registry experiment runs to
// completion at the smallest scales matchbench gets asked for. Graph
// constructors round sizes down, so a block or band count derived from
// them can reach zero or pass the process count there (sbpWeak and
// bandedBlockGraph did, and panicked). "ranks" ignores Scale; its world
// ladder is capped at its first rung to keep the test small.
//
// At the smaller scale every experiment runs twice, and the two runs
// must launch the same sequence of runs, record the same round-model
// runs and, where no async-flavour model runs, render the same tables:
// a sweep that reordered its launches, or a table built in map order,
// fails here. The async-flavour models (NSR, MBP, NSRA) are left out,
// since their virtual times follow the host schedule.
func TestEveryExperimentRunsAtSmallScales(t *testing.T) {
	roundModels := map[string]bool{"RMA": true, "NCL": true, "NCLI": true, "NCLC": true}
	sameTables := map[string]bool{"tab2": true, "tab3": true, "tab4": true, "tab5": true, "tab6": true, "fig7": true, "ext-ncli": true}
	for _, scale := range []float64{0.05, 0.1} {
		for _, id := range IDs() {
			cfg := Config{Scale: scale, Deadline: 10 * time.Minute, Ranks: 1024}
			rec, err := RunOneRecord(id, cfg, io.Discard)
			if err != nil {
				t.Errorf("%s at scale %g: %v", id, scale, err)
				continue
			}
			if scale != 0.05 {
				continue
			}
			again, err := RunOneRecord(id, cfg, io.Discard)
			if err != nil {
				t.Errorf("%s at scale %g, second run: %v", id, scale, err)
				continue
			}
			if a, b := runLabels(rec), runLabels(again); !slices.Equal(a, b) {
				t.Errorf("%s: the two runs launched\n%q\nand\n%q", id, a, b)
				continue
			}
			for i, r := range rec.Runs {
				if roundModels[r.Model] && !reflect.DeepEqual(r, again.Runs[i]) {
					t.Errorf("%s: %s recorded\n%+v\nthen\n%+v", id, r.Label, r, again.Runs[i])
				}
			}
			if a, b := tablesJSON(t, rec), tablesJSON(t, again); sameTables[id] && a != b {
				t.Errorf("%s: the two runs rendered\n%s\nand\n%s", id, a, b)
			}
		}
	}
}

func runLabels(rec *ExperimentRecord) []string {
	var labels []string
	for _, r := range rec.Runs {
		labels = append(labels, r.Label)
	}
	return labels
}

func tablesJSON(t *testing.T, rec *ExperimentRecord) string {
	t.Helper()
	b, err := json.Marshal(rec.Tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLaunchesTakeTheConfig: the launches that do not go through
// Config.match — the ranks ring, colouring and BFS — run with the
// Config's cost model, event tracing and perturbation, as the matching
// launches do. The test's cost model puts every message and
// neighbourhood chunk in flight for exactly 1 ms, far above any
// per-message overhead, so receivers keep finding data still in flight;
// a classified wait shows that latency as End - CauseT (the arrival
// minus the injection of what it waited on). Perturbation stretches
// latencies by a factor in [1, 3), so a perturbed run must show a
// stretched wait and an unperturbed one none.
func TestLaunchesTakeTheConfig(t *testing.T) {
	const alpha = 1e-3
	cost := mpi.DefaultCostModel()
	cost.AlphaP2P, cost.AlphaNbr, cost.BetaP2P, cost.BetaNbr = alpha, alpha, 0, 0
	for _, id := range []string{"ranks", "ext-coloring", "fig2"} {
		for _, pert := range []sched.Profile{{}, sched.Full} {
			cfg := Config{Scale: 0.05, Deadline: 10 * time.Minute, Ranks: 64,
				Cost: cost, TraceEvents: 1 << 16, Perturb: pert, PerturbSeed: 11}
			var runs []RunInfo
			cfg.OnRun = func(info RunInfo) { runs = append(runs, info) }
			if _, err := RunOneRecord(id, cfg, io.Discard); err != nil {
				t.Fatalf("%s perturb=%v: %v", id, pert, err)
			}
			if len(runs) == 0 {
				t.Fatalf("%s: no runs observed", id)
			}
			for _, info := range runs {
				rep := info.Report
				waits, stretched, events := 0, 0, 0
				for r := 0; r < rep.Procs; r++ {
					evs := rep.Events(r)
					events += evs.Len()
					for i := 0; i < evs.Len(); i++ {
						e := evs.At(i)
						if e.Kind != mpi.EvWait || (e.Class != mpi.WaitLateSender && e.Class != mpi.WaitNbrExchange) {
							continue
						}
						waits++
						lat := e.End - e.CauseT
						if lat < alpha*(1-1e-9) || lat > 3*alpha*(1+1e-9) {
							t.Fatalf("%s perturb=%v: %s: a wait on a message in flight for %g s; the cost model's latency is %g s", id, pert, info.Label, lat, alpha)
						}
						if lat > alpha*(1+1e-6) {
							stretched++
						}
					}
				}
				switch {
				case events == 0:
					t.Errorf("%s perturb=%v: %s traced no events", id, pert, info.Label)
				case waits == 0:
					t.Errorf("%s perturb=%v: %s has no wait on a message to check", id, pert, info.Label)
				case pert.Enabled() && stretched == 0:
					t.Errorf("%s: %s was not perturbed: all %d waited-on latencies are the unperturbed %g s", id, info.Label, waits, alpha)
				case !pert.Enabled() && stretched > 0:
					t.Errorf("%s: %s is unperturbed, yet %d of %d waited-on latencies were stretched", id, info.Label, stretched, waits)
				}
			}
		}
	}
}

// TestRunRecordsCarryTheOutcome: every launch site — match (fig11's
// NSR matching), matchMaximal (ext-async), colouring (ext-coloring),
// BFS (fig11) and the ranks ring — records the driver's Outcome
// unchanged: virtual time, phase profile, round series, rounds and
// messages. BFS records its level count as its rounds. The profile and
// round-series objects keep the schema's key order.
func TestRunRecordsCarryTheOutcome(t *testing.T) {
	apps := map[string]int{}
	for _, id := range []string{"fig11", "ext-async", "ext-coloring", "ranks"} {
		cfg := Config{Scale: 0.05, Deadline: 10 * time.Minute, Rounds: 256, Ranks: 64}
		var runs []RunInfo
		cfg.OnRun = func(info RunInfo) { runs = append(runs, info) }
		rec, err := RunOneRecord(id, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rec.Runs) != len(runs) || len(runs) == 0 {
			t.Fatalf("%s: %d records for %d observed runs", id, len(rec.Runs), len(runs))
		}
		for i, info := range runs {
			r := rec.Runs[i]
			apps[r.App]++
			if r.Label != info.Label || r.Rounds != info.Rounds || r.Messages != info.Messages {
				t.Errorf("%s: record %q rounds=%d messages=%d, launch %q rounds=%d messages=%d",
					id, r.Label, r.Rounds, r.Messages, info.Label, info.Rounds, info.Messages)
			}
			if r.TimeSec != info.Report.MaxVirtualTime {
				t.Errorf("%s: time_sec %g, report %g", r.Label, r.TimeSec, info.Report.MaxVirtualTime)
			}
			if r.Profile != info.Report.Profile() {
				t.Errorf("%s: profile %+v, report %+v", r.Label, r.Profile, info.Report.Profile())
			}
			if info.Telemetry == nil {
				if r.App != "ring" || len(r.RoundSeries) != 0 {
					t.Errorf("%s: no telemetry with round logs on, %d series rows", r.Label, len(r.RoundSeries))
				}
			} else if len(r.RoundSeries) != info.Telemetry.Rounds() {
				t.Errorf("%s: %d series rows, telemetry has %d", r.Label, len(r.RoundSeries), info.Telemetry.Rounds())
			}
			switch r.App {
			case "matching", "coloring":
				if r.Rounds <= 0 || r.Messages <= 0 {
					t.Errorf("%s: rounds=%d messages=%d, want both > 0", r.Label, r.Rounds, r.Messages)
				}
			case "bfs":
				g := cfg.rmatWeak(cfg.scaledProcs(16))
				b, err := bfs.Run(g, 0, bfs.Options{Procs: r.Procs})
				if err != nil {
					t.Fatal(err)
				}
				if r.Vertices != g.NumVertices() || r.Rounds != b.Levels || r.Messages != 0 {
					t.Errorf("%s: |V|=%d rounds=%d messages=%d, want |V|=%d rounds=%d levels, messages 0",
						r.Label, r.Vertices, r.Rounds, r.Messages, g.NumVertices(), b.Levels)
				}
			}
		}
		if id == "fig11" {
			profile, err := json.Marshal(rec.Runs[0].Profile)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := jsonKeys(profile), "compute pack exchange unpack wait"; got != want {
				t.Errorf("profile keys %q, want %q", got, want)
			}
			point, err := json.Marshal(rec.Runs[0].RoundSeries[0])
			if err != nil {
				t.Fatal(err)
			}
			if got, want := jsonKeys(point), "round time_sec unresolved done_frac requests rejects invalids bytes max_link_bytes max_queue_bytes"; got != want {
				t.Errorf("round_series keys %q, want %q", got, want)
			}
		}
	}
	for _, app := range []string{"matching", "coloring", "bfs", "ring"} {
		if apps[app] == 0 {
			t.Errorf("no %s run recorded", app)
		}
	}
}

// jsonKeys lists the keys of a JSON object of numbers in encoded order.
func jsonKeys(obj []byte) string {
	var keys []string
	for _, m := range regexp.MustCompile(`"(\w+)":`).FindAllSubmatch(obj, -1) {
		keys = append(keys, string(m[1]))
	}
	return strings.Join(keys, " ")
}
