package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestBadFlagIsUsageError: a missing -in or a rank count no distribution
// can use exits 2 with one line naming the flag, before the file is read
// — never a panic out of NewBlockDist.
func TestBadFlagIsUsageError(t *testing.T) {
	if code, _, _ := runCLI(t, "-no-such-flag"); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	missing := filepath.Join(t.TempDir(), "missing.csr")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-in", nil},
		{"-p", []string{"-in", missing, "-p", "0"}},
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
