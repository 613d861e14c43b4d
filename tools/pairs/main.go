// Command pairs produces the paired evidence ROADMAP's ground rules ask
// of every host-time claim: it runs one workload of the repository's
// benchmark (bench/, declared by BENCHMARK.json) on a parent commit and
// on the working tree alternately, swapping which side goes first, and
// prints for every metric each side's median and quartiles, how many
// pairs the change won, and each side's host.spin_ns (the benchmark's
// pure-CPU probe: a side that ran while a neighbour held the host shows
// there).
//
//	make pairs W=sbp-dense N=10
//	go run ./tools/pairs -w sbp-dense -n 10 [-parent REV] [-trace 1] [-seconds S]
//
// The parent's committed files are extracted with git archive into a
// temporary directory (removed on exit); the change is the working tree,
// uncommitted edits included. Both benchmarks are built once and the
// binaries alternated, each from its own bench/ directory. The parent
// defaults to HEAD when the tree has uncommitted changes and to HEAD~1
// when it is clean. Run from the repository root.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON object a single-workload pass of bench/ ends with.
type result struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// side is one of the two trees under comparison.
type side struct {
	name   string
	bin    string // benchmark binary
	dir    string // its bench/ directory: the benchmark reads ../BENCHMARK.json and golden.json
	vals   map[string][]float64
	spin   []float64
	failed int
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pairs:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("w", "", "benchmark workload (a name from BENCHMARK.json)")
	n := flag.Int("n", 10, "pairs to run")
	parent := flag.String("parent", "", "parent revision (default: HEAD if the tree is dirty, else HEAD~1)")
	trace := flag.Int("trace", 0, "0: untraced passes, the end-to-end metrics; 1: traced passes, the per-layer metrics")
	seconds := flag.Float64("seconds", 0, "measuring time of one pass (default: the benchmark's own)")
	flag.Parse()
	if *workload == "" || *n < 1 {
		return fmt.Errorf("usage: pairs -w WORKLOAD [-n PAIRS] [-parent REV] [-trace 1] [-seconds S]")
	}
	better, err := directions("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *parent == "" {
		dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
		if err != nil {
			return fmt.Errorf("git status: %w", err)
		}
		*parent = "HEAD~1"
		if len(bytes.TrimSpace(dirty)) > 0 {
			*parent = "HEAD"
		}
	}

	tmp, err := os.MkdirTemp("", "pairs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "parent")
	if err := os.Mkdir(tree, 0o755); err != nil {
		return err
	}
	if err := extract(*parent, tree); err != nil {
		return err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	sides := []*side{
		{name: "parent", bin: filepath.Join(tmp, "bench-parent"), dir: filepath.Join(tree, "bench"), vals: map[string][]float64{}},
		{name: "change", bin: filepath.Join(tmp, "bench-change"), dir: filepath.Join(cwd, "bench"), vals: map[string][]float64{}},
	}
	for _, s := range sides {
		build := exec.Command("go", "build", "-o", s.bin, ".")
		build.Dir = s.dir
		if out, err := build.CombinedOutput(); err != nil {
			return fmt.Errorf("build %s: %w\n%s", s.name, err, out)
		}
	}

	args := []string{"-workload", *workload, "-trace", strconv.Itoa(*trace)}
	if *seconds > 0 {
		args = append(args, "-seconds", fmt.Sprint(*seconds))
	}
	units := map[string]string{}
	for i := 0; i < *n; i++ {
		order := sides
		if i%2 == 1 {
			order = []*side{sides[1], sides[0]}
		}
		for _, s := range order {
			fmt.Fprintf(os.Stderr, "pair %d/%d: %s\n", i+1, *n, s.name)
			if err := s.pass(args, units); err != nil {
				return err
			}
		}
	}

	p, c := sides[0], sides[1]
	fmt.Printf("workload %s, %d pairs, parent %s, trace %d\n", *workload, *n, *parent, *trace)
	_, pm, _ := quartiles(p.spin)
	_, cm, _ := quartiles(c.spin)
	fmt.Printf("host.spin_ns  parent %.4g  change %.4g\n", pm, cm)
	fmt.Printf("failed runs   parent %d  change %d\n\n", p.failed, c.failed)
	fmt.Printf("%-40s %-6s %-34s %-34s %8s  %s\n", "metric", "unit", "parent median (q1 - q3)", "change median (q1 - q3)", "delta", "change wins")
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pq1, pmed, pq3 := quartiles(p.vals[name])
		cq1, cmed, cq3 := quartiles(c.vals[name])
		wins, ties := 0, 0
		for i := range p.vals[name] {
			switch d := c.vals[name][i] - p.vals[name][i]; {
			case d == 0:
				ties++
			case (d < 0) == (better[name] != "higher"):
				wins++
			}
		}
		delta := "      -"
		if pmed != 0 {
			delta = fmt.Sprintf("%+7.1f%%", 100*(cmed-pmed)/math.Abs(pmed))
		}
		fmt.Printf("%-40s %-6s %-34s %-34s %8s  %d/%d", name, units[name],
			fmt.Sprintf("%.4g (%.4g - %.4g)", pmed, pq1, pq3), fmt.Sprintf("%.4g (%.4g - %.4g)", cmed, cq1, cq3), delta, wins, *n)
		if ties > 0 {
			fmt.Printf(" (%d ties)", ties)
		}
		fmt.Println()
	}
	return nil
}

// pass runs the side's benchmark once and files every metric of the
// result object, plus the pass's host.spin_ns median from the text above
// it.
func (s *side) pass(args []string, units map[string]string) error {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s: %w\n%s", s.name, err, out)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) > 1 && f[0] == "host.spin_ns" {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				s.spin = append(s.spin, v)
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return fmt.Errorf("%s: last output line is not a result object: %w", s.name, err)
	}
	s.failed += res.Failed
	for name, m := range res.Metrics {
		s.vals[name] = append(s.vals[name], m.Value)
		units[name] = m.Unit
	}
	return nil
}

// extract unpacks the committed files of rev into dir.
func extract(rev, dir string) error {
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("tar: %w", err)
	}
	return nil
}

// directions reads which way each metric of BENCHMARK.json is better.
func directions(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	type metric struct{ Name, Better string }
	var spec struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	better := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better, nil
}

// quartiles returns the three cut points of v by linear interpolation
// between order statistics.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(q float64) float64 {
		x := q * float64(len(s)-1)
		lo := int(x)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (x-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}
