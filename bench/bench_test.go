package main

import (
	"math"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecWithinContract checks BENCHMARK.json against the limits the
// driver refuses a file for.
func TestSpecWithinContract(t *testing.T) {
	sp := mustSpec(t)
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name, tiny); err != nil {
			t.Error(err)
		}
	}
	widest := 0.0
	for _, m := range sp.EndToEnd {
		widest = math.Max(widest, m.Bound)
	}
	for _, m := range sp.all() {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != widest) {
			t.Errorf("setup_s must be in s, lower-is-better, with the widest bound: %+v", m)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func checkMetrics(t *testing.T, res *result, declared []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(declared) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
	}
	for _, m := range declared {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %v", m.Name, got.Value)
		}
	}
}

// TestWorkloadsTiny runs both passes of every workload at the tiny
// sizes: every declared metric comes out once, with its unit and a
// finite value; every run verifies; each per-layer metric is measured by
// at least one workload; and the spans form a tree in time.
func TestWorkloadsTiny(t *testing.T) {
	sp := mustSpec(t)
	measured := map[string]bool{}
	for _, name := range sp.workloadNames() {
		cfg := runConfig{workload: name, seed: 3, seconds: 0.2, sz: tiny}
		res, _, err := runWorkload(cfg, sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, res, sp.EndToEnd)
		for m, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m, v.Value)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}

		cfg.trace = true
		res, r, err := runWorkload(cfg, sp)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		checkMetrics(t, res, sp.PerLayer)
		if !res.Correct {
			t.Errorf("%s traced: %v", name, r.problems)
		}
		for m := range r.samples {
			measured[m] = true
		}

		// The spans must be a tree in time: every span inside its parent
		// (the "world" child, built from the callee's own Report.Wall,
		// included), children of one span covering no more than the span,
		// and the root of iteration n the interval wall_s[n] was read over.
		known := map[string]bool{}
		for _, l := range traceLayers {
			known[l] = true
		}
		spans, walls := r.tr.spans, r.samples["wall_s"]
		covered := make([]int64, len(spans))
		iterations := 0
		for i, s := range spans {
			if s.End < s.Start {
				t.Errorf("%s: span %d %s ends before it starts", name, i, s.Name)
			}
			if !known[s.Layer] && s.Iter >= 0 {
				t.Errorf("%s: span %s has layer %q, not one of traceLayers", name, s.Name, s.Layer)
			}
			if s.Parent >= 0 {
				p := spans[s.Parent]
				if s.Parent >= i || s.Start < p.Start || s.End > p.End || s.Iter != p.Iter {
					t.Errorf("%s: span %d %s [%d,%d] iter %d is not inside its parent %s [%d,%d] iter %d",
						name, i, s.Name, s.Start, s.End, s.Iter, p.Name, p.Start, p.End, p.Iter)
				}
				covered[s.Parent] += s.End - s.Start
				continue
			}
			if s.Iter < 0 {
				continue
			}
			iterations++
			if s.Name != "iteration" || s.Iter >= len(walls) {
				t.Errorf("%s: root span %s of iteration %d (of %d)", name, s.Name, s.Iter, len(walls))
				continue
			}
			span, wall := float64(s.End-s.Start)/1e9, walls[s.Iter]
			if span < wall || span-wall > math.Max(0.02*wall, 1e-3) {
				t.Errorf("%s iteration %d: root span %v s, measured wall %v s", name, s.Iter, span, wall)
			}
		}
		for i, s := range spans {
			if covered[i] > s.End-s.Start {
				t.Errorf("%s: children of span %d %s cover %d ns of its %d", name, i, s.Name, covered[i], s.End-s.Start)
			}
		}
		if iterations < 3 {
			t.Errorf("%s: %d traced iterations", name, iterations)
		}
		if c := res.Metrics["trace.coverage_frac"].Value; c < 0.95 {
			t.Errorf("%s: layer spans cover %.3f of the iteration", name, c)
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}

// TestGoldenTrips: a corrupted or missing golden digest fails the run.
func TestGoldenTrips(t *testing.T) {
	sp := mustSpec(t)
	cfg := runConfig{workload: "rgg-sparse", seed: 3, sz: tiny}
	_, r, err := runWorkload(cfg, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ref) != 7 || r.failed != 0 || r.mismatched != 0 {
		t.Fatalf("self-consistent run: %d digests, %d failed, %d mismatched", len(r.ref), r.failed, r.mismatched)
	}

	cfg.golden = map[string]string{}
	for k, v := range r.ref {
		cfg.golden[k] = v
	}
	if res, _, _ := runWorkload(cfg, sp); !res.Correct {
		t.Error("the run's own digests as golden: not correct")
	}
	cfg.golden["matching/ncl"] += "0"
	// Every NCL run (one in seven) is a mismatch, and none is a failure.
	res, r, _ := runWorkload(cfg, sp)
	if res.Correct || res.Failed != res.Attempted/7 || r.mismatched != res.Failed || r.failed != 0 {
		t.Errorf("corrupted digest: correct=%v failed=%d of %d (mismatched %d, failed %d); %v",
			res.Correct, res.Failed, res.Attempted, r.mismatched, r.failed, r.problems)
	}
	delete(cfg.golden, "matching/ncl")
	if res, r, _ := runWorkload(cfg, sp); res.Correct || r.mismatched == 0 {
		t.Error("missing digest: still correct")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "records_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{1.05, 1.06, 1.04, 1.05}, "ok"},
		{lower, steady, []float64{1.20, 1.21, 1.19, 1.20}, "regressed"},
		{lower, steady, []float64{0.5, 0.51, 0.49, 0.5}, "ok"},
		{higher, steady, []float64{0.8, 0.81, 0.79, 0.8}, "regressed"},
		{higher, steady, []float64{1.3, 1.31, 1.29, 1.3}, "ok"},
		// Spread wider than the bound: undecided unless the sets separate.
		{lower, []float64{1.0, 1.3, 0.8, 1.1}, []float64{1.05, 1.2, 0.9, 1.0}, "unresolved"},
		{lower, []float64{1.0, 1.3, 0.8, 1.1}, []float64{0.5, 0.7, 0.4, 0.6}, "ok"},
		{lower, []float64{1.0, 1.3, 0.8, 1.1}, []float64{2.0, 2.6, 1.6, 2.2}, "regressed"},
	} {
		if got := verdictOf(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
