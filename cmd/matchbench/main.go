// Command matchbench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	matchbench -exp fig4a                     # one experiment
//	matchbench -exp all                       # everything (minutes)
//	matchbench -list                          # show the experiment index
//	matchbench -exp fig8 -scale 0.5           # smaller, faster workloads
//	matchbench -exp fig4c -models nsr,ncl     # restrict the model set
//	matchbench -exp fig4a -engine maximal     # asynchronous maximal engine (DESIGN §4f)
//	matchbench -exp fig4c -trace fig4c.json   # Chrome trace of every run
//	matchbench -exp fig4c -analyze            # wait states, critical path, efficiency (§V-D)
//	matchbench -in out.json                   # re-render the analysis in a -json -analyze document
//	matchbench -exp tab8 -profile             # phase-profile table (§V-D)
//	matchbench -exp fig4a -json out.json      # machine-readable run records
//	matchbench -exp fig4a -rounds             # per-round convergence tables
//	matchbench -exp fig4a -perturb full -perturb-seed 0x2a  # perturbed schedules
//	matchbench -exp ranks -ranks 65536        # scheduler scaling curve up to 64K ranks
//	matchbench -exp fig6 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz  # pprof profiles
//
// Each experiment prints the table or series corresponding to one figure
// or table of Ghosh et al., IPDPS 2019, annotated with the shape the
// paper reported. A -trace file loads in chrome://tracing or Perfetto:
// one process per run, one thread track per rank, slices on the modeled
// virtual timeline. A -json file holds schema-versioned records of every
// table and every runtime launch — including, when round telemetry is on,
// the per-round protocol series — for the shape-regression suite and for
// plotting (see internal/harness/record.go).
//
// -analyze runs the post-mortem trace analyzer (internal/analysis) over
// every launch and prints its report per run: wait-state tables with
// causing ranks, the virtual-time critical path, POP-style efficiency
// factors and per-round efficiency, then a model comparison. With
// -trace, each run's process also gets the analyzer's counter tracks
// (outstanding messages, wait depth) and a critical-path track.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/analysis"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit so tests can drive the CLI
// end-to-end. Exit codes: 0 success, 1 runtime or output failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id (fig2, fig4a..c, tab3, fig5, fig6, tab4, fig7, tab5, tab6, fig8, fig9, tab7, fig10, tab8, fig11, ranks, ...) or 'all'")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		list     = fs.Bool("list", false, "list experiments and exit")
		verbose  = fs.Bool("v", false, "log progress")
		timeout  = fs.Duration("timeout", 10*time.Minute, "per-run deadline")
		models   = fs.String("models", "", "comma-separated model filter (nsr,rma,ncl,mbp,ncli,nsra,nclc); empty = experiment defaults")
		engine   = fs.String("engine", "", "matching protocol family: halfapprox (default) or maximal (asynchronous engine; DESIGN §4f)")
		trace    = fs.String("trace", "", "write every run as a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
		traceCap = fs.Int("trace-events", 1<<16, "per-rank event ring capacity when tracing")
		profile  = fs.Bool("profile", false, "append a per-experiment phase-profile table (compute/pack/exchange/unpack/wait)")
		analyze  = fs.Bool("analyze", false, "run the post-mortem trace analyzer on every launch: prints each run's report and a model comparison, embeds the analysis in -json records and overlays it on -trace")
		in       = fs.String("in", "", "render the analysis embedded in a matchbench -json -analyze document instead of running (excludes -exp)")
		jsonOut  = fs.String("json", "", "write tables and run records as schema-versioned JSON")
		rounds   = fs.Bool("rounds", false, "print a per-round convergence table after each run")
		roundCap = fs.Int("round-cap", 512, "per-rank round-log capacity when -json, -rounds or -analyze is set")
		ranks    = fs.Int("ranks", 0, "rank-count cap for the 'ranks' scaling experiment (0 = default 16384; 65536 runs the full curve)")
		perturb  = fs.String("perturb", "", "schedule-perturbation profile: off, full, or jitter=F,slowdown=F,ties,probemiss=F (see DESIGN §4)")
		pseed    = fs.Uint64("perturb-seed", 1, "perturbation seed (replays the schedule decisions of a PERTURB_SEED repro)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range harness.IDs() {
			e := harness.Find(id)
			fmt.Fprintf(stdout, "%-7s %s\n        paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return 0
	}
	if *in != "" {
		if *exp != "" {
			fmt.Fprintln(stderr, "matchbench: -in and -exp are mutually exclusive")
			return 2
		}
		return renderDocument(*in, stdout, stderr)
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "matchbench: -exp required (or -list or -in); e.g. matchbench -exp fig4a")
		return 2
	}
	ids := harness.IDs()
	if *exp != "all" {
		if harness.Find(*exp) == nil {
			fmt.Fprintf(stderr, "matchbench: unknown experiment %q; valid ids: all", *exp)
			for _, id := range ids {
				fmt.Fprintf(stderr, ", %s", id)
			}
			fmt.Fprintln(stderr)
			return 2
		}
		ids = []string{*exp}
	}
	if *ranks != 0 && (*ranks < 2 || *ranks > 1<<20) {
		fmt.Fprintf(stderr, "matchbench: -ranks %d out of range (want 0 or 2..%d)\n", *ranks, 1<<20)
		return 2
	}
	if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
		fmt.Fprintf(stderr, "matchbench: -scale %v must be a finite positive scale factor\n", *scale)
		return 2
	}
	if (*trace != "" || *analyze) && *traceCap <= 0 {
		fmt.Fprintf(stderr, "matchbench: -trace-events %d must be positive (it sizes the event rings -trace and -analyze read)\n", *traceCap)
		return 2
	}
	if (*jsonOut != "" || *rounds || *analyze) && *roundCap <= 0 {
		fmt.Fprintf(stderr, "matchbench: -round-cap %d must be positive (it sizes the round logs -json, -rounds and -analyze read)\n", *roundCap)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "matchbench: cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "matchbench: cpuprofile:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "matchbench: cpuprofile:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := writeArtifact(*memProf, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(stderr, "matchbench: memprofile:", err)
			}
		}()
	}

	cfg := harness.DefaultConfig()
	cfg.Scale = *scale
	cfg.Deadline = *timeout
	cfg.Profile = *profile
	cfg.Ranks = *ranks
	if *verbose {
		cfg.Out = stderr
	}
	if *models != "" {
		ms, err := transport.ParseModels(*models)
		if err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 2
		}
		cfg.Models = ms
	}
	if *engine != "" {
		e, err := matching.ParseEngine(*engine)
		if err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 2
		}
		cfg.Engine = e
	}
	if *perturb != "" {
		p, err := sched.ParseProfile(*perturb)
		if err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 2
		}
		cfg.Perturb = p
		cfg.PerturbSeed = *pseed
	}
	var collector *mpi.ChromeTrace
	var traced []harness.RunInfo // the current experiment's runs, in record order
	if *trace != "" {
		collector = mpi.NewChromeTrace()
		cfg.TraceEvents = *traceCap
		cfg.OnRun = func(info harness.RunInfo) { traced = append(traced, info) }
	}
	if *jsonOut != "" || *rounds || *analyze {
		cfg.Rounds = *roundCap
	}
	if *analyze {
		cfg.Analyze = true
		if cfg.TraceEvents == 0 {
			cfg.TraceEvents = *traceCap
		}
	}

	start := time.Now()
	doc := harness.NewDocument("matchbench", *scale)
	var analyzed []*analysis.Record
	for _, id := range ids {
		rec, err := harness.RunOneRecord(id, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
		doc.Add(rec)
		// The harness observes every run it records, in order.
		for i, info := range traced {
			var overlay mpi.Overlay
			if a := rec.Runs[i].Analysis; a != nil {
				overlay = a.AppendTrace
			}
			collector.Add(info.Label, info.Report, overlay)
		}
		traced = traced[:0]
		if *rounds {
			for i := range rec.Runs {
				rec.Runs[i].RenderRounds(stdout)
			}
		}
		analyzed = renderAnalysis(stdout, stderr, rec.Runs, analyzed)
	}
	renderComparison(stdout, analyzed)

	if collector != nil {
		if err := writeArtifact(*trace, collector.Write); err != nil {
			fmt.Fprintln(stderr, "matchbench: trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# wrote %d traced runs to %s\n", collector.Len(), *trace)
	}
	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, doc.Write); err != nil {
			fmt.Fprintln(stderr, "matchbench: json:", err)
			return 1
		}
		nruns := 0
		for _, e := range doc.Experiments {
			nruns += len(e.Runs)
		}
		fmt.Fprintf(stdout, "# wrote %d experiment records (%d runs, schema v%d) to %s\n",
			len(doc.Experiments), nruns, harness.SchemaVersion, *jsonOut)
	}
	fmt.Fprintf(stdout, "# completed in %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// renderDocument renders the analysis embedded in the matchbench -json
// document at path (-in) without re-running anything.
func renderDocument(path string, stdout, stderr io.Writer) int {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "matchbench:", err)
		return 1
	}
	var doc harness.Document
	if err := json.Unmarshal(blob, &doc); err != nil || len(doc.Experiments) == 0 {
		fmt.Fprintf(stderr, "matchbench: %s is not a matchbench -json document\n", path)
		return 1
	}
	if doc.Schema > harness.SchemaVersion {
		fmt.Fprintf(stderr, "matchbench: %s: schema v%d is newer than this binary understands (v%d)\n",
			path, doc.Schema, harness.SchemaVersion)
		return 1
	}
	var analyzed []*analysis.Record
	for _, e := range doc.Experiments {
		analyzed = renderAnalysis(stdout, stderr, e.Runs, analyzed)
	}
	if len(analyzed) == 0 {
		fmt.Fprintf(stderr, "matchbench: %s has no analyzed runs (write one with -json and -analyze)\n", path)
		return 1
	}
	renderComparison(stdout, analyzed)
	return 0
}

// renderAnalysis prints the analyzer report of every run that carries
// one and returns analyzed with their records appended.
func renderAnalysis(stdout, stderr io.Writer, runs []harness.RunRecord, analyzed []*analysis.Record) []*analysis.Record {
	for i := range runs {
		r := &runs[i]
		if r.Analysis == nil {
			continue
		}
		if r.Analysis.EventsTruncated {
			fmt.Fprintf(stderr, "matchbench: WARNING: %s dropped %d events — analysis is a prefix view (raise -trace-events)\n",
				r.Label, r.Analysis.DroppedEvents)
		}
		r.Analysis.Render(stdout, r.Label)
		fmt.Fprintln(stdout)
		analyzed = append(analyzed, r.Analysis)
	}
	return analyzed
}

// renderComparison prints the model comparison when more than one run
// was analyzed.
func renderComparison(stdout io.Writer, analyzed []*analysis.Record) {
	if len(analyzed) > 1 {
		fmt.Fprintln(stdout, "== model comparison ==")
		analysis.RenderComparison(stdout, analyzed)
	}
}

// writeArtifact creates path and streams emit's output into it. Create,
// write and close errors all surface: a partial artifact must fail the
// command, not leave a truncated file that still parses.
func writeArtifact(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = emit(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
