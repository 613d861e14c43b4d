package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadFlagIsUsageError: every value the chosen family cannot use
// exits 2 with one line naming the flag, before anything is generated —
// never a Go panic out of the generator.
func TestBadFlagIsUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-family", nil},
		{"-family", []string{"-family", "nope"}},
		{"-n", []string{"-family", "rgg", "-n", "0"}},
		{"-n", []string{"-family", "rgg", "-n", "-5"}},
		{"-deg", []string{"-family", "rgg", "-n", "2"}},
		{"-deg", []string{"-family", "rgg", "-n", "100", "-deg", "400"}},
		{"-deg", []string{"-family", "rgg", "-deg", "0"}},
		{"-deg", []string{"-family", "rgg", "-deg", "NaN"}},
		{"-scale", []string{"-family", "rmat", "-scale", "-1"}},
		{"-scale", []string{"-family", "rmat", "-scale", "31"}},
		{"-edgef", []string{"-family", "rmat", "-edgef", "-2"}},
		{"-n", []string{"-family", "sbp", "-n", "-5"}},
		{"-blocks", []string{"-family", "sbp", "-blocks", "0"}},
		{"-blocks", []string{"-family", "sbp", "-n", "10", "-blocks", "11"}},
		{"-deg", []string{"-family", "sbp", "-deg", "-1"}},
		{"-overlap", []string{"-family", "sbp", "-overlap", "1"}},
		{"-comps", []string{"-family", "kmer", "-comps", "-1"}},
		{"-minside", []string{"-family", "kmer", "-minside", "0"}},
		{"-maxside", []string{"-family", "kmer", "-minside", "6", "-maxside", "5"}},
		{"-deg", []string{"-family", "social", "-deg", "+Inf"}},
		{"-band", []string{"-family", "banded", "-band", "0"}},
		{"-fill", []string{"-family", "banded", "-fill", "-1"}},
		{"-long", []string{"-family", "banded", "-long", "NaN"}},
		{"-n", []string{"-family", "path", "-n", "-1"}},
		{"-rows", []string{"-family", "grid", "-rows", "0"}},
		{"-cols", []string{"-family", "grid", "-cols", "-3"}},
	} {
		code, stdout, errb := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb, tc.flag) || strings.Count(errb, "\n") != 1 {
			t.Errorf("%v: stderr is not one line naming %s: %q", tc.args, tc.flag, errb)
		}
		if stdout != "" {
			t.Errorf("%v: generated before rejecting the flag: %q", tc.args, stdout)
		}
	}
}

// TestInputFlagIsUsageError: no -in or -family, -in together with a
// generator flag, or a rank count no distribution can use exits 2 with
// one line naming the flag, before the file is read — never a panic out
// of NewBlockDist. A missing -in file exits 1.
func TestInputFlagIsUsageError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.csr")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-in", nil},
		{"-in", []string{"-in", missing, "-family", "rgg"}},
		{"-p", []string{"-in", missing, "-p", "-3"}},
		{"-p", []string{"-in", missing, "-p", "2097152"}},
	} {
		code, stdout, errb := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb, tc.flag) || strings.Count(errb, "\n") != 1 {
			t.Errorf("%v: stderr is not one line naming %s: %q", tc.args, tc.flag, errb)
		}
		if stdout != "" {
			t.Errorf("%v: printed before rejecting the flag: %q", tc.args, stdout)
		}
	}
	if code, _, errb := runCLI(t, "-in", missing); code != 1 || errb == "" {
		t.Errorf("missing file: exit %d, stderr %q; want 1 and a message", code, errb)
	}
}

// TestTinyGraphReport reads a saved RGG and prints its distribution
// report: graph and topology lines, one line per shown rank, and the
// count of ranks not shown.
func TestTinyGraphReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := gen.RGG(400, gen.RGGRadiusForDegree(400, 6), 2).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	code, out, errb := runCLI(t, "-in", path, "-p", "10", "-rcm")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"graph:", "post-RCM:", "topology:", "ghosts:", "rank  7: owns", "... (2 more ranks)"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// TestTinyRGGToFile generates a small RGG end-to-end, saves it, and
// reads back exactly the graph gen.RGG makes; an unwritable -o exits 1.
func TestTinyRGGToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.csr")
	code, out, errb := runCLI(t, "-family", "rgg", "-n", "500", "-deg", "6", "-seed", "3", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Errorf("stdout = %q", out)
	}
	got, err := graph.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := gen.RGG(500, gen.RGGRadiusForDegree(500, 6), 3)
	if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) || !slices.Equal(got.Weights, want.Weights) {
		t.Error("saved graph differs from gen.RGG's")
	}
	if code, _, errb := runCLI(t, "-family", "path", "-n", "10", "-o", t.TempDir()); code != 1 || errb == "" {
		t.Errorf("unwritable -o: exit %d, stderr %q; want 1 and a message", code, errb)
	}
}

// TestMatrixMarketAcrossCLIs writes g.mtx with gengraph and reads it
// back with gengraph -in -p 4 -rcm and commmatrix -app matching: the .mtx
// suffix selects Matrix Market on every side, the format the paper's
// SuiteSparse inputs come in. commmatrix is another main package, so it
// runs through the go tool.
func TestMatrixMarketAcrossCLIs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.mtx")
	if code, _, errb := runCLI(t, "-family", "banded", "-n", "600", "-band", "8", "-scramble", "-o", path); code != 0 {
		t.Fatalf("gengraph: exit %d, stderr %q", code, errb)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(head, []byte("%%MatrixMarket")) {
		t.Fatalf("g.mtx is not Matrix Market: %.40q", head)
	}
	code, out, errb := runCLI(t, "-in", path, "-p", "4", "-rcm")
	if code != 0 {
		t.Fatalf("gengraph -in: exit %d, stderr %q", code, errb)
	}
	for _, want := range []string{"graph:", "post-RCM:", "topology:", "ghosts:", "rank  0:", "rank  3:"} {
		if !strings.Contains(out, want) {
			t.Errorf("gengraph -in %s -p 4 -rcm: stdout missing %q:\n%s", path, want, out)
		}
	}

	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH:", err)
	}
	args := []string{"run", "../commmatrix", "-in", path, "-p", "4", "-app", "matching", "-model", "ncl"}
	cm, err := exec.Command(goTool, args...).CombinedOutput()
	if err != nil || !strings.Contains(string(cm), "graph:") || !strings.Contains(string(cm), "matching (NCL): weight=") {
		t.Errorf("commmatrix %v: %v, want the graph and matching lines in:\n%s", args[2:], err, cm)
	}
}
