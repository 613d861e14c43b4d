package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how far b's median is on the wrong side of a's, as a
// share of a's.
func worsening(m metricSpec, a, b []float64) float64 {
	ma, mb := median(a), median(b)
	if m.Better == "higher" {
		return (ma - mb) / ma
	}
	return (mb - ma) / ma
}

// separated reports whether every value of b is strictly better (or,
// with worse set, strictly worse) than every value of a.
func separated(m metricSpec, a, b []float64, worse bool) bool {
	for _, x := range a {
		for _, y := range b {
			better := y < x
			if m.Better == "higher" {
				better = y > x
			}
			if better == worse || x == y {
				return false
			}
		}
	}
	return true
}

// verdictOf applies one bound: regressed when b's median is worse than
// a's by more than the bound; unresolved when the run-to-run spread of
// either side exceeds the bound, unless the two sets do not overlap.
func verdictOf(m metricSpec, a, b []float64) string {
	w := worsening(m, a, b)
	noisy := spread(a) > m.Bound || spread(b) > m.Bound
	switch {
	case noisy && separated(m, a, b, false):
		return "ok"
	case noisy && !(w > m.Bound && separated(m, a, b, true)):
		return "unresolved"
	case w > m.Bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric, the
// two exactness metrics included, and fails on any regression.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if a.SpinNS > 0 && b.SpinNS > 0 {
		fmt.Printf("host.spin_ns: %.4g -> %.4g (%+.1f%%; a move of more than a few percent means the two sets saw different machines)\n",
			a.SpinNS, b.SpinNS, 100*(b.SpinNS/a.SpinNS-1))
	}
	fmt.Printf("%-13s %-14s %12s %12s %8s %7s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "worse%", "bound%", "A iqr%", "B iqr%", "verdict")
	counts := map[string]int{}
	for _, name := range sp.workloadNames() {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one of the files", name)
		}
		for _, m := range sp.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s: metric %s is missing from one of the files", name, m.Name)
			}
			v := verdictOf(m, va, vb)
			counts[v]++
			fmt.Printf("%-13s %-14s %12.5g %12.5g %8.1f %7.0f %8.1f %8.1f  %s\n", name, m.Name, median(va), median(vb),
				100*worsening(m, va, vb), 100*m.Bound, 100*spread(va), 100*spread(vb), v)
		}
		// The two exactness metrics have bound 0: any worsening regresses.
		exact := func(metric string, va, vb float64) {
			v := "ok"
			if vb > va {
				v = "regressed"
			}
			counts[v]++
			fmt.Printf("%-13s %-14s %12.5g %12.5g %8s %7.0f %8s %8s  %s\n", name, metric, va, vb, "", 0.0, "", "", v)
		}
		exact("virt_mismatch", float64(wa.VirtMismatch), float64(wb.VirtMismatch))
		exact("failed_frac", wa.FailedFrac, wb.FailedFrac)
	}
	fmt.Printf("%d ok, %d unresolved, %d regressed\n", counts["ok"], counts["unresolved"], counts["regressed"])
	if counts["regressed"] > 0 {
		return fmt.Errorf("%d regressed", counts["regressed"])
	}
	return nil
}

// calibrateBounds runs three sets and compares, per workload and
// end-to-end metric, the distance between the sets' medians with the
// bound: a bound tighter than twice that distance would flag noise.
func calibrateBounds(sp *spec, o options) error {
	const sets = 3
	var files []*resultsFile
	for i := 0; i < sets; i++ {
		o.out = filepath.Join("out", fmt.Sprintf("calibrate-%d.json", i+1))
		f, err := runAll(sp, o)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	tight := 0
	fmt.Printf("%-13s %-14s %12s %9s %9s %7s\n", "workload", "metric", "median", "sets%", "iqr%", "bound%")
	for _, name := range sp.workloadNames() {
		for _, m := range sp.EndToEnd {
			var all, meds []float64
			for _, f := range files {
				v := f.Workloads[name].EndToEnd[m.Name]
				all = append(all, v...)
				meds = append(meds, median(v))
			}
			lo, hi := meds[0], meds[0]
			for _, x := range meds {
				lo, hi = min(lo, x), max(hi, x)
			}
			between := (hi - lo) / median(all)
			note := ""
			if m.Bound < 2*between {
				note = "  bound tighter than twice the spread between sets"
				tight++
			}
			fmt.Printf("%-13s %-14s %12.5g %9.1f %9.1f %7.0f%s\n", name, m.Name, median(all), 100*between, 100*spread(all), 100*m.Bound, note)
		}
	}
	for i, f := range files {
		fmt.Printf("set %d host.spin_ns %.4g\n", i+1, f.SpinNS)
	}
	if tight > 0 {
		return fmt.Errorf("%d bounds are tighter than twice the observed spread", tight)
	}
	return nil
}
