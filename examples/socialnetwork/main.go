// Social-network scenario (the paper's Fig 6 / Table IV story): on
// heavy-tailed graphs the one-sided and neighborhood-collective models
// win at moderate scale, but the process graph densifies as ranks are
// added — every rank ends up neighboring every other — and the blocking
// collectives' advantage erodes.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/distgraph"
	"repro/internal/gen"
	"repro/internal/matching"
)

func main() {
	g := gen.Social(60000, 10, 7)
	fmt.Println("Friendster-style input:", g.Summary())
	fmt.Println()

	for _, procs := range []int{8, 16, 32, 64} {
		// First look at the distributed process graph the 1-D partition
		// induces — the quantity the paper's Table IV tracks.
		st := distgraph.NewBlockDist(g, procs).ProcessGraphStats()
		fmt.Printf("p=%-3d process graph: %s\n", procs, st)

		var nsr float64
		for _, model := range []matching.Model{matching.NSR, matching.RMA, matching.NCL} {
			res, err := matching.Run(g, matching.Options{Procs: procs, Model: model, Deadline: 2 * time.Minute})
			if err != nil {
				log.Fatal(err)
			}
			t := res.Report.MaxVirtualTime
			if model == matching.NSR {
				nsr = t
				fmt.Printf("      %-4v %8.3fms\n", model, t*1e3)
				continue
			}
			fmt.Printf("      %-4v %8.3fms  (%.2fx vs NSR)\n", model, t*1e3, nsr/t)
		}
		fmt.Println()
	}
	fmt.Println("expected pattern: RMA/NCL lead at small p; as dmax approaches p-1,")
	fmt.Println("per-round neighborhood costs erode the collectives' advantage (paper Fig 6).")
}
