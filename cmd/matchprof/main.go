// Command matchprof is the post-mortem performance profiler: it runs
// (or loads) experiments with event tracing on and renders what the
// trace analyzer (internal/analysis) extracts — wait-state tables with
// causing ranks, the virtual-time critical path, POP-style efficiency
// factors and a per-model comparison.
//
// Usage:
//
//	matchprof -exp fig4c                          # re-run one experiment, analyze every launch
//	matchprof -exp fig4c -models nsr,ncl          # restrict the model set
//	matchprof -in records.json                    # render analysis embedded by matchbench -json -analyze
//	matchprof -exp fig4c -json analysis.json      # machine-readable schema-versioned records
//	matchprof -exp fig4c -trace slowest.json      # enriched Perfetto trace of the slowest run
//	matchprof -exp ranks -ranks 64                # scheduler-experiment cap, as in matchbench
//
// The enriched trace adds counter tracks (outstanding messages, wait
// depth) and a critical-path track to the per-rank slices; load it in
// chrome://tracing or Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/harness"
	"repro/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit so tests can drive the CLI
// end-to-end. Exit codes: 0 success, 1 runtime or output failure,
// 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("matchprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment id to re-run under the analyzer (see matchbench -list)")
		in       = fs.String("in", "", "read a matchbench -json document (or single run record) instead of re-running")
		scale    = fs.Float64("scale", 1.0, "workload scale factor (with -exp)")
		models   = fs.String("models", "", "comma-separated model filter (nsr,rma,ncl,mbp,ncli,nsra,nclc)")
		timeout  = fs.Duration("timeout", 10*time.Minute, "per-run deadline")
		traceCap = fs.Int("trace-events", 1<<16, "per-rank event ring capacity")
		roundCap = fs.Int("round-cap", 512, "per-rank round-log capacity (per-round wait resolution)")
		ranks    = fs.Int("ranks", 0, "rank-count cap for the 'ranks' scaling experiment")
		jsonOut  = fs.String("json", "", "write the analyzed run records as schema-versioned JSON")
		trace    = fs.String("trace", "", "write the slowest run as an enriched Chrome trace (counters + critical path)")
		verbose  = fs.Bool("v", false, "log harness progress")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*exp == "") == (*in == "") {
		fmt.Fprintln(stderr, "matchprof: exactly one of -exp or -in required; e.g. matchprof -exp fig4c")
		return 2
	}

	var doc *harness.Document
	var slowest *harness.RunInfo
	var slowestAt int // slowest's index in the experiment's runs
	if *in != "" {
		var err error
		doc, err = loadDocument(*in)
		if err != nil {
			fmt.Fprintln(stderr, "matchprof:", err)
			return 1
		}
	} else {
		if harness.Find(*exp) == nil {
			fmt.Fprintf(stderr, "matchprof: unknown experiment %q; valid ids:", *exp)
			for _, id := range harness.IDs() {
				fmt.Fprintf(stderr, " %s", id)
			}
			fmt.Fprintln(stderr)
			return 2
		}
		if math.IsNaN(*scale) || math.IsInf(*scale, 0) || *scale <= 0 {
			fmt.Fprintf(stderr, "matchprof: -scale %v must be a finite positive scale factor\n", *scale)
			return 2
		}
		if *traceCap <= 0 {
			fmt.Fprintf(stderr, "matchprof: -trace-events %d must be positive (it sizes the event rings the analyzer reads)\n", *traceCap)
			return 2
		}
		if *roundCap <= 0 {
			fmt.Fprintf(stderr, "matchprof: -round-cap %d must be positive (it sizes the round logs the analyzer reads)\n", *roundCap)
			return 2
		}
		cfg := harness.DefaultConfig()
		cfg.Scale = *scale
		cfg.Deadline = *timeout
		cfg.Analyze = true
		cfg.TraceEvents = *traceCap
		cfg.Rounds = *roundCap
		cfg.Ranks = *ranks
		if *verbose {
			cfg.Out = stderr
		}
		if *models != "" {
			ms, err := transport.ParseModels(*models)
			if err != nil {
				fmt.Fprintln(stderr, "matchprof:", err)
				return 2
			}
			cfg.Models = ms
		}
		if *trace != "" {
			// The harness records every run it reports here, in order.
			n := 0
			cfg.OnRun = func(info harness.RunInfo) {
				if slowest == nil || info.Report.MaxVirtualTime > slowest.Report.MaxVirtualTime {
					copied := info
					slowest, slowestAt = &copied, n
				}
				n++
			}
		}
		doc = harness.NewDocument("matchprof", *scale)
		rec, err := harness.RunOneRecord(*exp, cfg, io.Discard)
		if err != nil {
			fmt.Fprintln(stderr, "matchprof:", err)
			return 1
		}
		doc.Add(rec)
	}

	rendered, skipped := 0, 0
	var all []*analysis.Record
	for _, e := range doc.Experiments {
		for i := range e.Runs {
			r := &e.Runs[i]
			if r.Analysis == nil {
				skipped++
				continue
			}
			if r.EventsTruncated || r.Analysis.EventsTruncated {
				fmt.Fprintf(stderr, "matchprof: WARNING: %s dropped %d events — analysis is a prefix view (raise -trace-events)\n",
					r.Label, r.Analysis.DroppedEvents)
			}
			r.Analysis.Render(stdout, r.Label)
			fmt.Fprintln(stdout)
			all = append(all, r.Analysis)
			rendered++
		}
	}
	if skipped > 0 {
		fmt.Fprintf(stdout, "# %d runs had no embedded analysis (regenerate with matchbench -json -analyze or matchprof -exp)\n", skipped)
	}
	if rendered == 0 {
		fmt.Fprintln(stderr, "matchprof: no analyzable runs found")
		return 1
	}
	if len(all) > 1 {
		fmt.Fprintln(stdout, "== model comparison ==")
		analysis.RenderComparison(stdout, all)
	}

	if *trace != "" && slowest != nil {
		rec := doc.Experiments[0].Runs[slowestAt].Analysis
		if rec == nil {
			fmt.Fprintln(stderr, "matchprof: trace: the slowest run has no analysis")
			return 1
		}
		if err := writeArtifact(*trace, func(w io.Writer) error {
			return analysis.WriteChromeTrace(w, slowest.Label, slowest.Report, rec)
		}); err != nil {
			fmt.Fprintln(stderr, "matchprof: trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# wrote enriched trace of %s to %s\n", slowest.Label, *trace)
	}
	if *jsonOut != "" {
		if err := writeArtifact(*jsonOut, doc.Write); err != nil {
			fmt.Fprintln(stderr, "matchprof: json:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# wrote %d analyzed runs (schema v%d) to %s\n",
			rendered, harness.SchemaVersion, *jsonOut)
	}
	return 0
}

// loadDocument reads a matchbench/matchprof JSON document; a bare
// RunRecord object is accepted too and wrapped in a synthetic document.
func loadDocument(path string) (*harness.Document, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc harness.Document
	if err := json.Unmarshal(blob, &doc); err == nil && len(doc.Experiments) > 0 {
		if doc.Schema > harness.SchemaVersion {
			return nil, fmt.Errorf("%s: schema v%d is newer than this binary understands (v%d)",
				path, doc.Schema, harness.SchemaVersion)
		}
		return &doc, nil
	}
	var rr harness.RunRecord
	if err := json.Unmarshal(blob, &rr); err != nil || rr.Label == "" {
		return nil, fmt.Errorf("%s: neither a run-record document nor a single run record", path)
	}
	doc = harness.Document{Schema: harness.SchemaVersion, Generator: "matchprof"}
	doc.Add(&harness.ExperimentRecord{ID: "imported", Runs: []harness.RunRecord{rr}})
	return &doc, nil
}

// writeArtifact creates path and streams emit's output into it; create,
// write and close errors all surface.
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
