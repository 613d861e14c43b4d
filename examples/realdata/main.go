// Real-data pipeline: load a SuiteSparse-style Matrix Market file (the
// format the paper's Cage15, HV15R, Orkut and Friendster inputs are
// distributed in), reorder it with RCM, and run the communication-model
// comparison on it.
//
//	go run ./examples/realdata path/to/graph.mtx
//
// Without an argument the example writes itself a small Matrix Market
// file first, so it always runs out of the box.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/order"
)

func main() {
	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		// Self-contained demo input: a banded mesh in collection order.
		path = filepath.Join(os.TempDir(), "realdata-demo.mtx")
		g := gen.OrderByDegree(gen.BandedMesh(8000, 24, 2.5, 0.002, 1))
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := g.WriteMatrixMarket(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Println("no input given; wrote demo graph to", path)
	}

	g, err := graph.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loaded:  ", g.Summary())

	reordered := order.Apply(g, order.RCM(g))
	fmt.Println("post-RCM:", reordered.Summary())
	fmt.Println()

	const procs = 16
	serial := matching.Serial(reordered)
	fmt.Printf("serial matching: weight=%.1f cardinality=%d\n\n", serial.Weight, serial.Cardinality)
	var nsr float64
	for _, model := range matching.Models {
		res, err := matching.Run(reordered, matching.Options{Procs: procs, Model: model, Deadline: 2 * time.Minute})
		if err != nil {
			log.Fatal(err)
		}
		if res.Weight != serial.Weight {
			log.Fatalf("%v disagrees with serial", model)
		}
		t := res.Report.MaxVirtualTime
		if model == matching.NSR {
			nsr = t
			fmt.Printf("%-5v %9.3fms\n", model, t*1e3)
			continue
		}
		fmt.Printf("%-5v %9.3fms  (%.2fx vs NSR)\n", model, t*1e3, nsr/t)
	}
}
