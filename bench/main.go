// Command bench is the repository's benchmark: four workloads over the
// simulated-MPI runtime and its applications, measured end to end in
// host time and, in a second traced pass, layer by layer. See README.md.
//
//	go run -C bench .                        all workloads, both passes, results file
//	go run -C bench . -workload sbp-dense    one untraced run, result line last
//	go run -C bench . -compare A.json B.json apply BENCHMARK.json's bounds
//	go run -C bench . -calibrate             are the bounds wider than the noise?
//	go run -C bench . -update-golden         rewrite golden.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result as the last line (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "seed of the input generators")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced pass (spans, per-layer metrics) instead of the end-to-end pass")
	flag.StringVar(&o.scale, "scale", "full", "input sizes: full or tiny")
	flag.StringVar(&o.out, "out", "out/results.json", "all-workload mode: results file")
	compare := flag.Bool("compare", false, "compare two results files given as arguments; exit 1 on a regression")
	calibrate := flag.Bool("calibrate", false, "run three sets and check every bound is at least twice the observed spread")
	update := flag.Bool("update-golden", false, "record the digests of the golden seed in golden.json")
	flag.Parse()

	if err := run(o, *compare, *calibrate, *update); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, compare, calibrate, update bool) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	sz, err := sizesFor(o.scale)
	if err != nil {
		return err
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	case calibrate:
		return calibrateBounds(sp, o)
	case update:
		return updateGolden(sp, sz)
	case o.workload != "":
		return runOne(sp, o, sz)
	}
	_, err = runAll(sp, o)
	return err
}

func sizesFor(scale string) (sizes, error) {
	switch scale {
	case "full":
		return full, nil
	case "tiny":
		return tiny, nil
	}
	return sizes{}, fmt.Errorf("unknown -scale %q (want full or tiny)", scale)
}

// runOne is the driver's entry: one workload, one pass, in this process.
func runOne(sp *spec, o options, sz sizes) error {
	golden, err := loadGolden(o.workload, o.seed, sz)
	if err != nil {
		return err
	}
	cfg := runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, trace: o.trace == 1, sz: sz, golden: golden}
	if cfg.trace {
		cfg.spans = filepath.Join("out", "spans-"+o.workload+".json")
	}
	res, r, err := runWorkload(cfg, sp)
	if err != nil {
		return err
	}
	report(sp, res, r)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untracedPasses is how many end-to-end passes the all-workload mode
// makes of every workload before its one traced pass.
const untracedPasses = 3

// resultsFile is what the all-workload mode writes and -compare reads:
// for every workload, one value of each end-to-end metric per untraced
// pass (the pass's own median over its iterations), the verdicts summed
// over all its passes, and the traced pass's per-layer metrics.
type resultsFile struct {
	Seed      int64                       `json:"seed"`
	Seconds   float64                     `json:"seconds"`
	Scale     string                      `json:"scale"`
	SpinNS    float64                     `json:"host.spin_ns"` // median over every pass of the set
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Attempted    int                  `json:"attempted"`
	VirtMismatch int                  `json:"virt_mismatch"` // runs whose digest differs from the reference
	Failed       int                  `json:"failed"`        // runs that erred, timed out or failed verification
	FailedFrac   float64              `json:"failed_frac"`   // Failed / Attempted
	EndToEnd     map[string][]float64 `json:"end_to_end"`
	PerLayer     map[string]float64   `json:"per_layer"`
	// TraceOverheadFrac is the traced pass's wall_s over the untraced
	// passes' median, minus one.
	TraceOverheadFrac float64 `json:"trace_overhead_frac"`
}

// pass is what a child process reports of one pass: the result line and,
// from the metric lines above it, what the line's one failure count
// cannot tell apart.
type pass struct {
	result
	mismatched int
	spinNS     float64
}

// child runs one pass of one workload in a fresh process, so pools, GC
// state and peak RSS do not leak between workloads.
func child(o options, workload string, trace int, echo io.Writer) (*pass, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-scale", o.scale)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var p pass
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(echo, "%-13s %s\n", workload, l)
		var name string
		var v float64
		if n, _ := fmt.Sscan(string(l), &name, &v); n == 2 {
			switch name {
			case "virt_mismatch":
				p.mismatched = int(v)
			case "host.spin_ns":
				p.spinNS = v
			}
		}
	}
	if err := json.Unmarshal(lines[len(lines)-1], &p.result); err != nil {
		return nil, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	return &p, nil
}

func runAll(sp *spec, o options) (*resultsFile, error) {
	file := &resultsFile{Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Workloads: map[string]*workloadResults{}}
	var spins []float64
	for _, name := range sp.workloadNames() {
		wr := &workloadResults{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		file.Workloads[name] = wr
		for i := 0; i <= untracedPasses; i++ {
			trace, echo := 0, io.Discard
			if i == untracedPasses {
				trace = 1
			}
			if i >= untracedPasses-1 {
				echo = os.Stdout
			}
			p, err := child(o, name, trace, echo)
			if err != nil {
				return nil, err
			}
			wr.Attempted += p.Attempted
			wr.VirtMismatch += p.mismatched
			wr.Failed += p.Failed - p.mismatched
			spins = append(spins, p.spinNS)
			for m, v := range p.Metrics {
				if trace == 1 {
					wr.PerLayer[m] = v.Value
				} else {
					wr.EndToEnd[m] = append(wr.EndToEnd[m], v.Value)
				}
			}
		}
		wr.FailedFrac = float64(wr.Failed) / float64(wr.Attempted)
		wr.TraceOverheadFrac = wr.PerLayer["trace.wall_s"]/median(wr.EndToEnd["wall_s"]) - 1
		fmt.Printf("%-13s %-44s %14.6g %-8s\n", name, "trace_overhead_frac", wr.TraceOverheadFrac, "frac")
		fmt.Printf("%-13s %-44s %14d %-8s of %d runs\n", name, "virt_mismatch", wr.VirtMismatch, "count", wr.Attempted)
		fmt.Printf("%-13s %-44s %14.6g %-8s of %d runs\n", name, "failed_frac", wr.FailedFrac, "ratio", wr.Attempted)
	}
	file.SpinNS = median(spins)
	fmt.Printf("%-13s %-44s %14.6g %-8s\n", "host", "host.spin_ns", file.SpinNS, "ns")
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println("results written to", o.out)
	for _, name := range sp.workloadNames() {
		if wr := file.Workloads[name]; wr.Failed+wr.VirtMismatch > 0 {
			return file, fmt.Errorf("%s: %d of %d runs failed, %d mismatched their digest", name, wr.Failed, wr.Attempted, wr.VirtMismatch)
		}
	}
	return file, nil
}
