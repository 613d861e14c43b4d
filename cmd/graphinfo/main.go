// Command graphinfo reports graph, distribution, and process-topology
// statistics for a saved graph file (binary CSR, or Matrix Market when
// the name ends in .mtx): the quantities behind the paper's
// Tables III-VI (|Ep|, dmax, davg, sigma_d, |E'| family).
//
// Usage:
//
//	graphinfo -in graph.csr -p 32
//	graphinfo -in graph.csr -p 32 -rcm     # stats after RCM reordering
//	graphinfo -in cage15.mtx -p 64         # a SuiteSparse matrix
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/order"
)

// maxRanks bounds -p as matchbench bounds -ranks.
const maxRanks = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit so tests can drive the CLI
// end-to-end. Exit codes: 0 success, 1 input failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in  = fs.String("in", "", "input graph: Matrix Market if it ends in .mtx, else binary CSR (gengraph -o)")
		p   = fs.Int("p", 32, "number of ranks for the 1-D block distribution")
		rcm = fs.Bool("rcm", false, "apply RCM before computing distribution stats")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "graphinfo: -in required")
		return 2
	}
	if *p < 1 || *p > maxRanks {
		fmt.Fprintf(stderr, "graphinfo: -p %d out of range [1,%d]\n", *p, maxRanks)
		return 2
	}
	g, err := graph.LoadFile(*in)
	if err != nil {
		fmt.Fprintln(stderr, "graphinfo:", err)
		return 1
	}
	fmt.Fprintln(stdout, "graph:   ", g.Summary())
	if *rcm {
		g = order.Apply(g, order.RCM(g))
		fmt.Fprintln(stdout, "post-RCM:", g.Summary())
	}
	d := distgraph.NewBlockDist(g, *p)
	fmt.Fprintln(stdout, "topology:", d.ProcessGraphStats())
	fmt.Fprintln(stdout, "ghosts:  ", d.GhostEdgeStats())
	for r := 0; r < min(*p, 8); r++ {
		l := d.BuildLocal(r)
		fmt.Fprintf(stdout, "rank %2d: owns [%d,%d) neighbors=%d crossArcs=%d |E'|=%d\n",
			r, l.Lo, l.Hi, len(l.NeighborRanks), l.TotalCrossArcs, l.LocalArcs)
	}
	if *p > 8 {
		fmt.Fprintf(stdout, "... (%d more ranks)\n", *p-8)
	}
	return 0
}
