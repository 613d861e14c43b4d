package matching_test

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/transport"
)

// ExampleRun generates a deterministic graph, matches it distributed
// under the neighborhood-collective model, and confirms the result is
// exactly the serial locally-dominant matching.
func ExampleRun() {
	g := gen.Social(5000, 8, 42)
	serial := matching.Serial(g)

	res, err := matching.Run(g, matching.Options{
		Procs:    8,
		Model:    matching.NCL,
		Deadline: time.Minute,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("matches serial:", res.Weight == serial.Weight && res.Cardinality == serial.Cardinality)
	fmt.Println("valid:", matching.Verify(g, res.Result) == nil)
	// Output:
	// matches serial: true
	// valid: true
}

// ExampleRun_compareModels runs a volume-heavy social graph under the
// point-to-point baseline and the neighborhood-collective model and
// reports which modeled faster (the paper's Fig 6 regime, where
// aggregation wins by severalfold).
func ExampleRun_compareModels() {
	g := gen.Social(30000, 10, 7)
	var times [2]float64
	for i, m := range []matching.Model{matching.NSR, matching.NCL} {
		res, err := matching.Run(g, matching.Options{Procs: 16, Model: m, Deadline: 5 * time.Minute})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		times[i] = res.Report.MaxVirtualTime
	}
	fmt.Println("aggregated collectives faster on a volume-heavy social graph:", times[1] < times[0])
	// Output:
	// aggregated collectives faster on a volume-heavy social graph: true
}

// ExampleRun_allModels matches one graph serially and under all seven
// communication models. With hashed tie-breaking the locally-dominant
// matching is unique, so every model reproduces the serial matching
// exactly; only the communication differs. Round-flavour models also
// print their rounds and modeled time, which are exact; the poll loops'
// (NSR, MBP, NSRA) depend on how ranks interleave on the host.
func ExampleRun_allModels() {
	g := gen.Social(5000, 8, 42)
	serial := matching.Serial(g)
	fmt.Printf("serial: weight %.4f, cardinality %d\n", serial.Weight, serial.Cardinality)
	for _, model := range matching.Models {
		res, err := matching.Run(g, matching.Options{Procs: 8, Model: model, Deadline: time.Minute})
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		same := res.Weight == serial.Weight && res.Cardinality == serial.Cardinality &&
			slices.Equal(res.Mate, serial.Mate)
		fmt.Printf("%-4v matches serial: %v", model, same)
		if model.Flavor() == transport.FlavorRound {
			fmt.Printf("  rounds %d  modeled %.3f ms", res.Rounds, res.Report.MaxVirtualTime*1e3)
		}
		fmt.Println()
	}
	// Output:
	// serial: weight 132537.7823, cardinality 1772
	// NSR  matches serial: true
	// RMA  matches serial: true  rounds 10  modeled 1.977 ms
	// NCL  matches serial: true  rounds 10  modeled 2.506 ms
	// MBP  matches serial: true
	// NCLI matches serial: true  rounds 20  modeled 2.367 ms
	// NSRA matches serial: true
	// NCLC matches serial: true  rounds 10  modeled 1.602 ms
}
