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
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

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
		analyze  = fs.Bool("analyze", false, "run the post-mortem trace analyzer on every launch: embeds analysis in -json records and prints each run's top critical-path edges (matchprof renders the full report)")
		jsonOut  = fs.String("json", "", "write tables and run records as schema-versioned JSON")
		rounds   = fs.Bool("rounds", false, "print a per-round convergence table after each run")
		roundCap = fs.Int("round-cap", 512, "per-rank round-log capacity when -json or -rounds is set")
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
	if *exp == "" {
		fmt.Fprintln(stderr, "matchbench: -exp required (or -list); e.g. matchbench -exp fig4a")
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
	if (*jsonOut != "" || *rounds) && *roundCap <= 0 {
		fmt.Fprintf(stderr, "matchbench: -round-cap %d must be positive (it sizes the round logs -json and -rounds read)\n", *roundCap)
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
	if *trace != "" {
		collector = mpi.NewChromeTrace()
		cfg.TraceEvents = *traceCap
		cfg.OnRun = func(info harness.RunInfo) { collector.Add(info.Label, info.Report) }
	}
	if *jsonOut != "" || *rounds {
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
	for _, id := range ids {
		rec, err := harness.RunOneRecord(id, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "matchbench:", err)
			return 1
		}
		doc.Add(rec)
		if *rounds {
			for i := range rec.Runs {
				rec.Runs[i].RenderRounds(stdout)
			}
		}
		if *analyze {
			for i := range rec.Runs {
				renderTopEdges(stdout, stderr, &rec.Runs[i])
			}
		}
	}

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

// renderTopEdges prints a run's top-5 critical-path edges (-analyze):
// the cross-rank dependencies that bounded the run's virtual time. The
// full analyzer report is matchprof's job.
func renderTopEdges(stdout, stderr io.Writer, r *harness.RunRecord) {
	if r.Analysis == nil {
		return
	}
	if r.EventsTruncated {
		fmt.Fprintf(stderr, "matchbench: WARNING: %s dropped %d events — analysis is a prefix view (raise -trace-events)\n",
			r.Label, r.Analysis.DroppedEvents)
	}
	cp := &r.Analysis.CriticalPath
	fmt.Fprintf(stdout, "# %s critical path: %.3gs over %d hops; top edges:\n", r.Label, cp.LengthSec, cp.Hops)
	edges := cp.TopEdges
	if len(edges) > 5 {
		edges = edges[:5]
	}
	for _, e := range edges {
		fmt.Fprintf(stdout, "#   r%d<-r%d %s wait %.3gs transfer %.3gs\n",
			e.Rank, e.Peer, e.Class, e.WaitSec, e.TransferSec)
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
