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

func TestNoModeIsUsageError(t *testing.T) {
	code, _, errb := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "-exp or -in") {
		t.Errorf("stderr does not explain the modes: %q", errb)
	}
}

func TestBothModesIsUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, "-exp", "fig4c", "-in", "x.json"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestUnknownExpListsValidIDs(t *testing.T) {
	code, _, errb := runCLI(t, "-exp", "fig99")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb, "fig4c") {
		t.Errorf("stderr does not list valid ids: %q", errb)
	}
}

// TestBadFlagIsUsageError: an unknown flag, and a value no analyzed run
// could use for a flag -exp consumes, exit 2 with stderr naming the flag.
func TestBadFlagIsUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: exit code != 2")
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-scale", []string{"-exp", "fig4c", "-scale", "-1"}},
		{"-scale", []string{"-exp", "fig4c", "-scale", "NaN"}},
		{"-trace-events", []string{"-exp", "fig4c", "-trace-events", "-4"}},
		{"-round-cap", []string{"-exp", "fig4c", "-round-cap", "0"}},
		{"-top", []string{"-exp", "fig4c", "-top", "3"}},
	} {
		code, stdout, errb := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb, tc.flag) {
			t.Errorf("%v: stderr does not name %s: %q", tc.args, tc.flag, errb)
		}
		if stdout != "" {
			t.Errorf("%v: ran before rejecting the flag: %q", tc.args, stdout)
		}
	}
}

// TestBadRanksIsError: a rank-count cap the ranks experiment cannot run
// (matchbench refuses the same values as a usage error) is a one-line
// error from the experiment, not a panic out of the runtime.
func TestBadRanksIsError(t *testing.T) {
	for _, v := range []string{"1", "-5", "2097152"} {
		code, stdout, errb := runCLI(t, "-exp", "ranks", "-ranks", v)
		if code == 0 {
			t.Errorf("-ranks %s: exit 0, want a failure", v)
		}
		if !strings.Contains(errb, "-ranks") || strings.Count(errb, "\n") != 1 {
			t.Errorf("-ranks %s: stderr is not one line naming the flag: %q", v, errb)
		}
		if stdout != "" {
			t.Errorf("-ranks %s: ran before rejecting the cap: %q", v, stdout)
		}
	}
}

func TestBadModelsIsUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, "-exp", "fig4c", "-models", "nope"); code != 2 {
		t.Errorf("bad -models: exit code != 2")
	}
}

func TestMissingInputFileIsRuntimeError(t *testing.T) {
	if code, _, _ := runCLI(t, "-in", filepath.Join(t.TempDir(), "absent.json")); code != 1 {
		t.Errorf("missing -in file: exit code != 1")
	}
}

func TestGarbageInputIsRuntimeError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{\"nope\": true}"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb := runCLI(t, "-in", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
}

// TestExpEndToEnd drives the full pipeline: re-run fig4c small, render
// the analyzer report, write JSON and the enriched trace, then feed the
// JSON back through -in.
func TestExpEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "analysis.json")
	tracePath := filepath.Join(dir, "trace.json")
	code, out, errb := runCLI(t,
		"-exp", "fig4c", "-scale", "0.25", "-models", "nsr,ncl",
		"-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	// Trace separately under NSR alone: the "outstanding msgs" counter
	// tracks user p2p messages, which pure-collective models don't have.
	if code, _, errb := runCLI(t,
		"-exp", "fig4c", "-scale", "0.25", "-models", "nsr",
		"-trace", tracePath); code != 0 {
		t.Fatalf("trace run exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, want := range []string{"wait state", "critical path", "efficiency", "model comparison", "late_sender"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}

	blob, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc harness.Document
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("-json artifact does not parse: %v", err)
	}
	if doc.Schema != harness.SchemaVersion {
		t.Errorf("schema = %d, want %d", doc.Schema, harness.SchemaVersion)
	}
	analyzed := 0
	for _, e := range doc.Experiments {
		for _, r := range e.Runs {
			if r.Analysis != nil {
				analyzed++
				if r.Analysis.CriticalPath.LengthSec != r.TimeSec {
					t.Errorf("%s: path length %v != run time %v",
						r.Label, r.Analysis.CriticalPath.LengthSec, r.TimeSec)
				}
			}
		}
	}
	if analyzed == 0 {
		t.Fatal("no run records carry an embedded analysis")
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace) {
		t.Error("-trace artifact is not valid JSON")
	}
	for _, want := range []string{"outstanding msgs", "wait depth", "critical path"} {
		if !strings.Contains(string(trace), want) {
			t.Errorf("trace missing %q track", want)
		}
	}

	// Round-trip: render the written document without re-running.
	code, out2, errb := runCLI(t, "-in", jsonPath)
	if code != 0 {
		t.Fatalf("-in exit %d, want 0\nstderr: %s", code, errb)
	}
	if !strings.Contains(out2, "critical path") {
		t.Errorf("-in render missing critical path:\n%.400s", out2)
	}
}

// TestInWithoutAnalysisFails: a document whose runs carry no analysis
// renders nothing and must say so.
func TestInWithoutAnalysisFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plain.json")
	doc := harness.NewDocument("test", 1)
	doc.Add(&harness.ExperimentRecord{ID: "x", Runs: []harness.RunRecord{{Label: "plain run"}}})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Write(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	code, out, errb := runCLI(t, "-in", path)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "no embedded analysis") && !strings.Contains(errb, "no analyzable runs") {
		t.Errorf("missing-analysis hint absent\nstdout: %s\nstderr: %s", out, errb)
	}
}

// TestJSONWriteFailureIsReported mirrors the matchbench contract: a
// failing artifact write is an error exit, not a silent success.
func TestJSONWriteFailureIsReported(t *testing.T) {
	code, _, errb := runCLI(t,
		"-exp", "fig4c", "-scale", "0.25", "-models", "nsr",
		"-json", filepath.Join(t.TempDir(), "no", "such", "dir.json"))
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "json") {
		t.Errorf("stderr does not mention the json failure: %q", errb)
	}
}
