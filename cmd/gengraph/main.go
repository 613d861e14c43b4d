// Command gengraph generates the synthetic graph families from the
// paper's Table II, or loads a saved graph, prints its statistics, and
// optionally saves it in the repository's binary CSR format or, for a
// .mtx file, as Matrix Market. With -p it also reports the 1-D block
// distribution over that many ranks: the process-topology and ghost
// statistics behind the paper's Tables III-VI (|Ep|, dmax, davg,
// sigma_d, |E'| family) and the first ranks' shares.
//
// Usage:
//
//	gengraph -family rgg -n 100000 -deg 8 -seed 1 -o rgg.csr
//	gengraph -family rmat -scale 14 -o rmat.mtx
//	gengraph -family sbp -n 50000 -blocks 200 -deg 16 -overlap 0.55
//	gengraph -family kmer -comps 1000 -minside 5 -maxside 9
//	gengraph -family social -n 80000 -deg 10
//	gengraph -family banded -n 30000 -band 24 -fill 2.5
//	gengraph -family path -n 1000
//	gengraph -family grid -rows 30 -cols 40
//	gengraph -in rgg.csr -p 32              # distribution report
//	gengraph -in cage15.mtx -p 64 -rcm      # a SuiteSparse matrix, after RCM
//
// Add -rcm to reorder the result with Reverse Cuthill-McKee and -scramble
// to randomize vertex ids first.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
)

// maxRanks bounds -p as matchbench bounds -ranks.
const maxRanks = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit so tests can drive the CLI
// end-to-end. Exit codes: 0 success, 1 input or output failure, 2 usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family   = fs.String("family", "", "rgg | rmat | sbp | kmer | social | banded | path | grid")
		in       = fs.String("in", "", "load this graph instead of generating one: Matrix Market if it ends in .mtx, else binary CSR (-o)")
		p        = fs.Int("p", 0, "also report the 1-D block distribution over this many ranks")
		n        = fs.Int("n", 10000, "vertices (rgg, sbp, social, banded, path)")
		deg      = fs.Float64("deg", 8, "target average degree (rgg, sbp, social)")
		seed     = fs.Int64("seed", 1, "generator seed")
		scale    = fs.Int("scale", 12, "rmat: log2 vertices")
		edgef    = fs.Int("edgef", 16, "rmat: edge factor")
		blocks   = fs.Int("blocks", 32, "sbp: number of blocks")
		overlap  = fs.Float64("overlap", 0.5, "sbp: cross-block edge probability")
		comps    = fs.Int("comps", 100, "kmer: grid components")
		minSide  = fs.Int("minside", 5, "kmer: min grid side")
		maxSide  = fs.Int("maxside", 9, "kmer: max grid side")
		band     = fs.Int("band", 24, "banded: bandwidth")
		fill     = fs.Float64("fill", 2.5, "banded: in-band edges per vertex")
		long     = fs.Float64("long", 0.002, "banded: long-range edge fraction")
		rows     = fs.Int("rows", 10, "grid: rows")
		cols     = fs.Int("cols", 10, "grid: columns")
		scramble = fs.Bool("scramble", false, "randomize vertex ids")
		rcm      = fs.Bool("rcm", false, "apply Reverse Cuthill-McKee reordering")
		out      = fs.String("o", "", "output file (Matrix Market if it ends in .mtx, else binary CSR); omit to only print stats")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// The generators panic on out-of-range parameters (a programming
	// error for a library caller); here they are user input, so the
	// chosen family's flags are checked first and the first bad one is
	// reported.
	var bad string
	need := func(ok bool, format string, a ...any) {
		if !ok && bad == "" {
			bad = fmt.Sprintf(format, a...)
		}
	}
	positive := func(flag string, v int) { need(v >= 1, "%s %d must be positive", flag, v) }
	nonNegative := func(flag string, v float64) {
		need(v >= 0 && !math.IsInf(v, 1), "%s %g must be finite and non-negative", flag, v)
	}
	need(*p >= 0 && *p <= maxRanks, "-p %d out of range [0,%d]", *p, maxRanks)
	var build func() *graph.CSR
	switch *family {
	case "":
		need(*in != "", "-family or -in required")
	case "rgg":
		positive("-n", *n)
		r := gen.RGGRadiusForDegree(*n, *deg)
		need(r > 0 && r <= 1, "-deg %g with -n %d implies an RGG radius of %g, outside (0,1]", *deg, *n, r)
		build = func() *graph.CSR { return gen.RGG(*n, r, *seed) }
	case "rmat":
		// Vertex ids are int32, so 2^30 vertices is the largest power of two.
		need(*scale >= 0 && *scale <= 30, "-scale %d out of range [0,30]", *scale)
		positive("-edgef", *edgef)
		build = func() *graph.CSR { return gen.RMAT(*scale, *edgef, 0.57, 0.19, 0.19, 0.05, *seed) }
	case "sbp":
		positive("-n", *n)
		need(*blocks >= 1 && *blocks <= *n, "-blocks %d out of range [1,%d]", *blocks, *n)
		nonNegative("-deg", *deg)
		need(*overlap >= 0 && *overlap < 1, "-overlap %g out of range [0,1)", *overlap)
		build = func() *graph.CSR { return gen.SBP(*n, *blocks, *deg, *overlap, *seed) }
	case "kmer":
		positive("-comps", *comps)
		positive("-minside", *minSide)
		need(*maxSide >= *minSide, "-maxside %d is below -minside %d", *maxSide, *minSide)
		build = func() *graph.CSR { return gen.KMerGrids(*comps, *minSide, *maxSide, *seed) }
	case "social":
		positive("-n", *n)
		nonNegative("-deg", *deg)
		build = func() *graph.CSR { return gen.Social(*n, *deg, *seed) }
	case "banded":
		positive("-n", *n)
		positive("-band", *band)
		nonNegative("-fill", *fill)
		nonNegative("-long", *long)
		build = func() *graph.CSR { return gen.BandedMesh(*n, *band, *fill, *long, *seed) }
	case "path":
		positive("-n", *n)
		build = func() *graph.CSR { return gen.Path(*n) }
	case "grid":
		positive("-rows", *rows)
		positive("-cols", *cols)
		build = func() *graph.CSR { return gen.Grid2D(*rows, *cols) }
	default:
		need(false, "unknown -family %q (want rgg|rmat|sbp|kmer|social|banded|path|grid)", *family)
	}
	need(*in == "" || *family == "", "-in and -family %q are exclusive", *family)
	if bad != "" {
		fmt.Fprintln(stderr, "gengraph:", bad)
		return 2
	}

	var g *graph.CSR
	if *in != "" {
		var err error
		if g, err = graph.LoadFile(*in); err != nil {
			fmt.Fprintln(stderr, "gengraph:", err)
			return 1
		}
	} else {
		g = build()
	}
	if *scramble {
		g, _ = gen.Scramble(g, *seed^0x5ca1ab1e)
	}
	fmt.Fprintln(stdout, "graph:   ", g.Summary())
	if *rcm {
		g = order.Apply(g, order.RCM(g))
		fmt.Fprintln(stdout, "post-RCM:", g.Summary())
	}
	if *p > 0 {
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
	}
	if *out != "" {
		var err error
		if strings.HasSuffix(*out, ".mtx") {
			var f *os.File
			if f, err = os.Create(*out); err == nil {
				err = g.WriteMatrixMarket(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		} else {
			err = g.SaveFile(*out)
		}
		if err != nil {
			fmt.Fprintln(stderr, "gengraph:", err)
			return 1
		}
		fmt.Fprintln(stdout, "wrote", *out)
	}
	return 0
}
