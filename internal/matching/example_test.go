package matching_test

import (
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/matching"
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
