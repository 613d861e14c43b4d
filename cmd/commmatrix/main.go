// Command commmatrix runs half-approximate matching and/or Graph500-style
// BFS on a graph and dumps the per-pair communication matrices the paper
// visualizes in Figs 2, 9 and 11, either as a density plot or as CSV.
//
// Usage:
//
//	commmatrix -in graph.csr -p 32 -app matching -model nsr
//	commmatrix -in graph.mtx -p 32 -app bfs -csv > bfs.csv
//	commmatrix -family rmat -scale 13 -p 32 -app both
//	commmatrix -family sbp -p 16 -model ncl -timeline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// timelineEvents is the per-rank event ring capacity -timeline traces
// with (the wait timeline is drawn from the ring's blocked intervals).
const timelineEvents = 1 << 16

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit so tests can drive the CLI.
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("commmatrix", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "input graph file: Matrix Market if it ends in .mtx, else binary CSR")
		family   = fs.String("family", "rmat", "generate instead of loading: rmat | social | sbp")
		scale    = fs.Int("scale", 13, "rmat scale when generating")
		n        = fs.Int("n", 50000, "vertices when generating social/sbp")
		seed     = fs.Int64("seed", 1, "generator seed")
		p        = fs.Int("p", 32, "ranks")
		app      = fs.String("app", "matching", "matching | bfs | both")
		model    = fs.String("model", "nsr", "matching model: nsr | rma | ncl | mbp | ncli | nsra | nclc")
		bytes    = fs.Bool("bytes", false, "report byte volumes instead of message counts")
		csv      = fs.Bool("csv", false, "emit the raw matrix as CSV instead of a density plot")
		timeline = fs.Bool("timeline", false, "also print per-rank wait timelines ('#' = blocked)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *app {
	case "matching", "bfs", "both":
	default:
		fmt.Fprintf(stderr, "commmatrix: unknown -app %q (want matching, bfs or both)\n", *app)
		return 2
	}
	if *p < 2 || *p > 1<<20 {
		fmt.Fprintf(stderr, "commmatrix: %d ranks out of range (want 2..%d)\n", *p, 1<<20)
		return 2
	}
	// Every usage error is reported before the graph is loaded or built;
	// the generators panic on out-of-range parameters.
	m, err := transport.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(stderr, "commmatrix:", err)
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "commmatrix: -n %d must be positive\n", *n)
		return 2
	}

	var g *graph.CSR
	if *in != "" {
		g, err = graph.LoadFile(*in)
		if err != nil {
			fmt.Fprintln(stderr, "commmatrix:", err)
			return 1
		}
	} else {
		switch *family {
		case "rmat":
			// Vertex ids are int32, so 2^30 vertices is the largest power of two.
			if *scale < 0 || *scale > 30 {
				fmt.Fprintf(stderr, "commmatrix: -scale %d out of range [0,30]\n", *scale)
				return 2
			}
			g = gen.Graph500(*scale, *seed)
		case "social":
			g = gen.Social(*n, 10, *seed)
		case "sbp":
			g = gen.SBP(*n, max(1, *n/150), 12, 0.55, *seed)
		default:
			fmt.Fprintf(stderr, "commmatrix: unknown -family %q (want rmat, social or sbp)\n", *family)
			return 2
		}
	}
	fmt.Fprintln(stdout, "graph:", g.Summary())

	if *app == "matching" || *app == "both" {
		opt := matching.Options{Procs: *p, Model: m, TrackMatrices: true, Deadline: 10 * time.Minute}
		if *timeline {
			opt.TraceEvents = timelineEvents
		}
		res, err := matching.Run(g, opt)
		if err != nil {
			fmt.Fprintln(stderr, "commmatrix:", err)
			return 1
		}
		fmt.Fprintf(stdout, "matching (%v): weight=%.1f cardinality=%d time=%.3fms\n",
			m, res.Weight, res.Cardinality, res.Report.MaxVirtualTime*1e3)
		dump(stdout, res.Report, *bytes, *csv)
		if *timeline {
			fmt.Fprintln(stdout, "wait timeline (virtual time left to right; '#' blocked, ':' mixed, '.' busy):")
			for _, line := range res.Report.RenderTimeline(72) {
				fmt.Fprintln(stdout, line)
			}
			var drops int64
			for r := 0; r < *p; r++ {
				drops += res.Report.EventDrops(r)
			}
			if drops > 0 {
				fmt.Fprintf(stdout, "*** TIMELINE TRUNCATED: the event rings (%d per rank) dropped %d events; waits after a rank's ring filled show as busy ***\n", timelineEvents, drops)
			}
		}
	}
	if *app == "bfs" || *app == "both" {
		res, err := bfs.Run(g, 0, bfs.Options{Procs: *p, TrackMatrices: true, Deadline: 10 * time.Minute})
		if err != nil {
			fmt.Fprintln(stderr, "commmatrix:", err)
			return 1
		}
		fmt.Fprintf(stdout, "bfs: visited=%d levels=%d time=%.3fms\n", res.Visited, res.Levels, res.Report.MaxVirtualTime*1e3)
		dump(stdout, res.Report, *bytes, *csv)
	}
	return 0
}

func dump(w io.Writer, rep *mpi.Report, bytes, csv bool) {
	m := rep.MsgMatrix()
	if bytes {
		m = rep.ByteMatrix()
	}
	if csv {
		for _, row := range m {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = fmt.Sprint(v)
			}
			fmt.Fprintln(w, strings.Join(cells, ","))
		}
		return
	}
	for _, line := range harness.MatrixDensity(m, len(m)) {
		fmt.Fprintln(w, line)
	}
}
