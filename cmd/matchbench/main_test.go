package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListShowsEveryExperiment(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, id := range harness.IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("-list output missing %q", id)
		}
	}
}

func TestMissingExpIsUsageError(t *testing.T) {
	code, _, errb := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "-exp required") {
		t.Errorf("stderr = %q", errb)
	}
}

func TestUnknownExpListsValidIDs(t *testing.T) {
	code, _, errb := runCLI(t, "-exp", "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "fig99") {
		t.Errorf("stderr does not name the bad id: %q", errb)
	}
	for _, id := range []string{"fig4a", "tab8", "ext-coloring"} {
		if !strings.Contains(errb, id) {
			t.Errorf("stderr does not list valid id %q: %q", id, errb)
		}
	}
}

// TestBadFlagIsUsageError: an unknown flag, and a value no run could
// use for a flag the invocation consumes, exit 2 with one line naming
// the flag — never a silent run on clamped or disabled settings.
func TestBadFlagIsUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	out := filepath.Join(t.TempDir(), "out.json")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-scale", []string{"-exp", "fig4a", "-scale", "-1"}},
		{"-scale", []string{"-exp", "fig4a", "-scale", "0"}},
		{"-scale", []string{"-exp", "fig4a", "-scale", "NaN"}},
		{"-scale", []string{"-exp", "fig4a", "-scale", "+Inf"}},
		{"-trace-events", []string{"-exp", "fig4a", "-trace", out, "-trace-events", "-4"}},
		{"-trace-events", []string{"-exp", "fig4a", "-analyze", "-trace-events", "0"}},
		{"-round-cap", []string{"-exp", "fig4a", "-rounds", "-round-cap", "0"}},
		{"-round-cap", []string{"-exp", "fig4a", "-json", out, "-round-cap", "-1"}},
		{"-round-cap", []string{"-exp", "fig4a", "-analyze", "-round-cap", "0"}},
	} {
		code, stdout, errb := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb, tc.flag) || strings.Count(errb, "\n") != 1 {
			t.Errorf("%v: stderr is not one line naming %s: %q", tc.args, tc.flag, errb)
		}
		if stdout != "" {
			t.Errorf("%v: ran before rejecting the flag: %q", tc.args, stdout)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("a rejected invocation wrote %s", out)
	}
}

func TestBadRanksIsUsageError(t *testing.T) {
	for _, v := range []string{"1", "-3", "2097152"} {
		code, _, errb := runCLI(t, "-exp", "ranks", "-ranks", v)
		if code != 2 {
			t.Errorf("-ranks %s: exit %d, want 2", v, code)
		}
		if !strings.Contains(errb, "-ranks") {
			t.Errorf("-ranks %s: stderr does not name the flag: %q", v, errb)
		}
	}
}

// TestRanksExperimentCapped drives the scaling experiment end-to-end
// with a cap below the smallest ladder rung: exactly one row at the cap
// itself, with both a ring record and a matching record in the JSON.
func TestRanksExperimentCapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ranks.json")
	code, out, errb := runCLI(t, "-exp", "ranks", "-ranks", "64", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "== ranks") {
		t.Fatalf("stdout missing ranks table:\n%s", out)
	}
	doc := readDocument(t, path)
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "ranks" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	e := doc.Experiments[0]
	if len(e.Tables) != 1 || len(e.Tables[0].Rows) != 1 {
		t.Fatalf("want 1 table with 1 row, got %+v", e.Tables)
	}
	if got := e.Tables[0].Rows[0][0]; got != "64" {
		t.Errorf("row rank count = %s, want 64", got)
	}
	apps := map[string]bool{}
	for _, r := range e.Runs {
		apps[r.App] = true
		if r.Procs != 64 {
			t.Errorf("%s: procs = %d, want 64", r.Label, r.Procs)
		}
	}
	if !apps["ring"] || !apps["matching"] {
		t.Errorf("runs missing ring or matching record: %+v", apps)
	}
}

func TestBadModelsIsUsageError(t *testing.T) {
	code, _, errb := runCLI(t, "-exp", "fig4a", "-models", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errb)
	}
}

// TestTinyExperimentToJSON drives one real experiment end-to-end at
// reduced scale and validates the emitted document: schema version,
// experiment and run records, and a per-round series on every matching
// run (the -rounds/-json telemetry path).
func TestTinyExperimentToJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, out, errb := runCLI(t, "-exp", "fig4a", "-scale", "0.2", "-json", path, "-rounds")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "== fig4a") || !strings.Contains(out, "== rounds: convergence of") {
		t.Errorf("stdout missing experiment or convergence tables:\n%s", out)
	}
	doc := readDocument(t, path)
	if doc.Schema != harness.SchemaVersion {
		t.Errorf("schema = %d, want %d", doc.Schema, harness.SchemaVersion)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "fig4a" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	e := doc.Experiments[0]
	if len(e.Tables) == 0 || len(e.Runs) == 0 {
		t.Fatalf("empty record: %d tables, %d runs", len(e.Tables), len(e.Runs))
	}
	for _, r := range e.Runs {
		if r.App != "matching" || r.Model == "" || r.TimeSec <= 0 {
			t.Errorf("malformed run record %+v", r)
		}
		if len(r.RoundSeries) == 0 {
			t.Errorf("%s: no round series despite telemetry being on", r.Label)
		} else if last := r.RoundSeries[len(r.RoundSeries)-1]; last.Unresolved != 0 {
			t.Errorf("%s: final unresolved = %d", r.Label, last.Unresolved)
		}
	}
}

// TestJSONWriteFailureIsReported points -json at an unwritable path; the
// command must fail loudly instead of leaving a missing artifact behind
// a zero exit.
func TestJSONWriteFailureIsReported(t *testing.T) {
	code, _, errb := runCLI(t, "-exp", "tab3", "-scale", "0.2", "-json", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "json") {
		t.Errorf("stderr does not mention the json failure: %q", errb)
	}
}

// TestProfileFlagsWriteProfiles runs a tiny experiment with both pprof
// flags and checks non-empty profile files appear.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	code, _, errb := runCLI(t, "-exp", "tab3", "-scale", "0.2", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestCPUProfileFailureIsReported points -cpuprofile at an unwritable
// path (a directory): usage must fail with exit 1.
func TestCPUProfileFailureIsReported(t *testing.T) {
	code, _, errb := runCLI(t, "-exp", "tab3", "-scale", "0.2", "-cpuprofile", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "cpuprofile") {
		t.Errorf("stderr does not mention the cpuprofile failure: %q", errb)
	}
}

// TestTraceWriteFailureIsReported does the same for -trace.
func TestTraceWriteFailureIsReported(t *testing.T) {
	code, _, errb := runCLI(t, "-exp", "tab3", "-scale", "0.2", "-trace", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "trace") {
		t.Errorf("stderr does not mention the trace failure: %q", errb)
	}
}

// TestAnalyzeFlagPrintsFullReport: -analyze prints each run's full
// analyzer report — wait states, critical path, efficiency and, with
// round logs turned on by -analyze itself, per-round rows — then the
// model comparison, and embeds the record in the JSON artifact.
func TestAnalyzeFlagPrintsFullReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	code, out, errb := runCLI(t, "-exp", "fig4a", "-scale", "0.2", "-models", "nsr,ncl", "-analyze", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"late_sender", "critical path", "efficiency: parallel", "round  end", "== model comparison ==", "NCL "} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	for _, r := range readDocument(t, path).Experiments[0].Runs {
		if r.Analysis == nil {
			t.Fatalf("%s: no embedded analysis despite -analyze", r.Label)
		}
		if r.Analysis.CriticalPath.LengthSec != r.TimeSec {
			t.Errorf("%s: path length %v != run time %v",
				r.Label, r.Analysis.CriticalPath.LengthSec, r.TimeSec)
		}
		if len(r.Analysis.WaitStates) == 0 {
			t.Errorf("%s: no wait states", r.Label)
		}
		if len(r.Analysis.Rounds) == 0 {
			t.Errorf("%s: no per-round efficiency", r.Label)
		}
	}
}

// TestAnalyzeJSONRoundTrip: -in re-renders a -json -analyze document
// without re-running, and prints the report the run printed.
func TestAnalyzeJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "analysis.json")
	code, out, errb := runCLI(t, "-exp", "fig4c", "-scale", "0.25", "-models", "nsr,ncl,rma", "-analyze", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	code, out2, errb := runCLI(t, "-in", path)
	if code != 0 {
		t.Fatalf("-in exit %d, stderr %q", code, errb)
	}
	// The run's stdout is its tables, the reports, then trailing notes.
	start := strings.Index(out, "== sbp-weak")
	end := strings.Index(out, "# wrote")
	if start < 0 || end < start {
		t.Fatalf("run output has no analyzer report:\n%s", out)
	}
	if report := out[start:end]; out2 != report {
		t.Errorf("-in rendered\n%s\nthe run rendered\n%s", out2, report)
	}
}

// TestInBadDocumentIsRuntimeError: a document -in cannot render exits 1
// with one line naming the problem.
func TestInBadDocumentIsRuntimeError(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc any) string {
		path := filepath.Join(dir, name)
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plain := harness.NewDocument("test", 1)
	plain.Add(&harness.ExperimentRecord{ID: "x", Runs: []harness.RunRecord{{Label: "plain run"}}})
	newer := *plain
	newer.Schema = harness.SchemaVersion + 1
	for _, tc := range []struct {
		name, path, want string
	}{
		{"missing file", filepath.Join(dir, "absent.json"), "absent.json"},
		{"garbage", write("garbage.json", map[string]bool{"nope": true}), "not a matchbench -json document"},
		{"no analysis", write("plain.json", plain), "no analyzed runs"},
		{"newer schema", write("newer.json", &newer), "newer than this binary"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, "-in", tc.path)
			if code != 1 {
				t.Fatalf("exit %d, want 1", code)
			}
			if !strings.Contains(errb, tc.want) || strings.Count(errb, "\n") != 1 {
				t.Errorf("stderr is not one line saying %q: %q", tc.want, errb)
			}
			if out != "" {
				t.Errorf("rendered something: %q", out)
			}
		})
	}
}

func TestInWithExpIsUsageError(t *testing.T) {
	code, out, errb := runCLI(t, "-exp", "fig4c", "-in", "x.json")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "-in") || out != "" {
		t.Errorf("stdout %q, stderr %q", out, errb)
	}
}

// TestAnalyzeInvocationErrors: with -analyze set, a bad invocation is
// still refused before anything runs (exit 2, stderr naming the
// problem), and a failing -json write of the analysis is an error exit.
func TestAnalyzeInvocationErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want []string // each must appear in stderr
	}{
		{"no mode", []string{"-analyze"}, 2, []string{"-exp", "-in"}},
		{"unknown exp", []string{"-exp", "fig99", "-analyze"}, 2, []string{"fig99", "fig4c"}},
		{"bad flag", []string{"-analyze", "-no-such-flag"}, 2, []string{"-no-such-flag"}},
		{"bad flag top", []string{"-exp", "fig4c", "-analyze", "-top", "3"}, 2, []string{"-top"}},
		{"bad flag scale", []string{"-exp", "fig4c", "-analyze", "-scale", "NaN"}, 2, []string{"-scale"}},
		{"bad flag trace events", []string{"-exp", "fig4c", "-analyze", "-trace-events", "-4"}, 2, []string{"-trace-events"}},
		{"bad ranks", []string{"-exp", "ranks", "-analyze", "-ranks", "1"}, 2, []string{"-ranks"}},
		{"bad models", []string{"-exp", "fig4c", "-analyze", "-models", "nope"}, 2, []string{"nope"}},
		{"json write failure", []string{"-exp", "fig4c", "-scale", "0.25", "-models", "nsr", "-analyze",
			"-json", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, 1, []string{"json"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, errb)
			}
			for _, w := range tc.want {
				if !strings.Contains(errb, w) {
					t.Errorf("stderr does not mention %q: %q", w, errb)
				}
			}
			if tc.code == 2 && out != "" {
				t.Errorf("ran before rejecting the invocation: %q", out)
			}
		})
	}
}

// TestAnalyzeTraceOverlaysEveryRun: with -analyze, -trace draws every
// run with the analyzer's counter and critical-path tracks under the
// run's own process id.
func TestAnalyzeTraceOverlaysEveryRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, errb := runCLI(t, "-exp", "fig4c", "-scale", "0.25", "-models", "nsr", "-analyze", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("-trace artifact does not parse: %v", err)
	}
	tracks := map[int]map[string]bool{} // pid -> overlay tracks seen
	for _, e := range doc.TraceEvents {
		name := e.Name
		switch e.Name {
		case "process_name":
			tracks[e.Pid] = map[string]bool{}
			continue
		case "thread_name":
			name, _ = e.Args["name"].(string)
		}
		tracks[e.Pid][name] = true
	}
	if len(tracks) != 3 {
		t.Fatalf("trace holds %d runs, want fig4c's 3", len(tracks))
	}
	for pid, seen := range tracks {
		for _, want := range []string{"outstanding msgs", "wait depth", "critical path"} {
			if !seen[want] {
				t.Errorf("run %d has no %q track", pid, want)
			}
		}
	}
}

// readDocument decodes the -json artifact at path.
func readDocument(t *testing.T, path string) *harness.Document {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc harness.Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}
