package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-no-such-flag"}},
		{"bad app", []string{"-app", "sorting"}},
		{"bad family", []string{"-family", "hypercube"}},
		{"bad model", []string{"-family", "rmat", "-scale", "8", "-p", "2", "-model", "smoke-signals"}},
		{"ranks too small", []string{"-family", "rmat", "-scale", "8", "-p", "1"}},
		{"ranks too large", []string{"-family", "rmat", "-scale", "8", "-p", "2097152"}},
		{"p too small", []string{"-family", "rmat", "-scale", "8", "-p", "0"}},
		{"rmat scale negative", []string{"-family", "rmat", "-scale", "-1"}},
		{"rmat scale too large", []string{"-scale", "40"}},
		{"n negative", []string{"-family", "social", "-n", "-5"}},
		{"n zero", []string{"-n", "0", "-app", "bfs"}},
		// A missing input would exit 1: the model is checked first.
		{"model before input", []string{"-in", "/no/such/graph.csr", "-model", "bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if code, _, errb := runCLI(t, tc.args...); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, errb)
			}
		})
	}
}

func TestMissingInputFileFails(t *testing.T) {
	code, _, errb := runCLI(t, "-in", "/no/such/graph.csr")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errb)
	}
}

// TestTinyBothEndToEnd drives matching and BFS on a generated graph and
// checks both matrices come out in CSV form with one row per rank.
func TestTinyBothEndToEnd(t *testing.T) {
	const p = 4
	code, out, errb := runCLI(t, "-family", "rmat", "-scale", "8", "-p", "4", "-app", "both", "-csv")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "graph:") || !strings.Contains(out, "matching (NSR):") || !strings.Contains(out, "bfs:") {
		t.Fatalf("missing sections in output:\n%s", out)
	}
	csvRows := 0
	for _, line := range strings.Split(out, "\n") {
		if cells := strings.Split(line, ","); len(cells) == p && !strings.Contains(line, " ") {
			csvRows++
		}
	}
	if csvRows != 2*p {
		t.Errorf("found %d CSV matrix rows, want %d (two %dx%d matrices):\n%s", csvRows, 2*p, p, p, out)
	}
}

// TestDensityPlotEndToEnd: three plot rows means three ranks.
func TestDensityPlotEndToEnd(t *testing.T) {
	code, out, errb := runCLI(t, "-family", "sbp", "-n", "2000", "-p", "3", "-app", "matching", "-model", "ncl")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "matching (NCL):") {
		t.Fatalf("missing matching section:\n%s", out)
	}
	plotRows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "|") && strings.HasSuffix(line, "|") {
			plotRows++
		}
	}
	if plotRows != 3 {
		t.Errorf("found %d density rows, want 3:\n%s", plotRows, out)
	}
}

// TestSmallSBPClampsBlocks: below 150 vertices n/150 is zero blocks,
// which the generator rejects; the CLI clamps to one block instead.
func TestSmallSBPClampsBlocks(t *testing.T) {
	if code, out, errb := runCLI(t, "-family", "sbp", "-n", "100", "-p", "2"); code != 0 || !strings.Contains(out, "|V|=100") {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errb, out)
	}
}

// TestTimelineFromEventTrace: -timeline draws one row per rank from the
// event trace's blocked intervals, and a run that fits its rings prints
// no truncation note.
func TestTimelineFromEventTrace(t *testing.T) {
	code, out, errb := runCLI(t, "-family", "sbp", "-n", "2000", "-p", "4", "-model", "ncl", "-timeline")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	rows, blocked := 0, false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "rank ") {
			rows++
			blocked = blocked || strings.Contains(line, "#")
		}
	}
	if rows != 4 || !blocked {
		t.Errorf("want 4 timeline rows with blocked marks, got %d (blocked %v):\n%s", rows, blocked, out)
	}
	if strings.Contains(out, "TRUNCATED") {
		t.Errorf("a run far below the ring capacity reports truncation:\n%s", out)
	}
}
