// Quickstart: generate a graph, match it serially and under all four MPI
// communication models, and compare results and modeled execution times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/gen"
	"repro/internal/matching"
)

func main() {
	// An Orkut-flavored social network: heavy-tailed degrees, ~120k
	// edges. Every generator in internal/gen is deterministic in its
	// seed.
	g := gen.Social(20000, 12, 42)
	fmt.Println("input:", g.Summary())

	// Serial baseline: the locally-dominant algorithm (paper Alg. 2).
	serial := matching.Serial(g)
	fmt.Printf("serial: weight=%.1f cardinality=%d\n\n", serial.Weight, serial.Cardinality)

	// Distributed runs. With hashed tie-breaking the locally-dominant
	// matching is unique, so every model must reproduce the serial
	// result exactly — only the communication behavior differs.
	const procs = 16
	fmt.Printf("%-6s %12s %10s %12s %10s\n", "model", "time(ms)", "rounds", "messages", "speedup")
	var nsrTime float64
	for _, model := range matching.Models {
		res, err := matching.Run(g, matching.Options{
			Procs:    procs,
			Model:    model,
			Deadline: time.Minute,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := matching.VerifyLocallyDominant(g, res.Result); err != nil {
			log.Fatalf("%v produced a bad matching: %v", model, err)
		}
		if res.Weight != serial.Weight {
			log.Fatalf("%v weight %.3f differs from serial %.3f", model, res.Weight, serial.Weight)
		}
		t := res.Report.MaxVirtualTime
		if model == matching.NSR {
			nsrTime = t
		}
		fmt.Printf("%-6v %12.3f %10d %12d %9.2fx\n",
			model, t*1e3, res.Rounds, res.Messages, nsrTime/t)
	}
	fmt.Printf("\nall models reproduced the serial matching (weight %.1f) on %d ranks\n", serial.Weight, procs)
}
