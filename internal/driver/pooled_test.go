package driver_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/transport"
)

// pooledProcs is big enough that the runtime schedules ranks through its
// ticket pool, where the round loop runs as a resumable step.
const pooledProcs = 320

// pooledDigest pins the round-flavour runs of a pooled world: the result
// and every deterministic number, exactly as goldenLine does, for the
// half-approximate and maximal matching and the colouring. The values
// were produced by the goroutine-per-rank round loop, so the step form
// must reproduce them bit for bit, at every GOMAXPROCS.
var pooledDigest = []string{
	"RMA/match-half card=570 weight=40e54986e6986270 hash=e1f6bd0eabf55fa7 vt=3f674f30a38ea06d rounds=8 msgs=5507 bytes=461928 coll=4480 rows=9",
	"RMA/match-maximal card=581 hash=e46b383989874132 vt=3f8336f5590bcba2 rounds=30 msgs=2488 bytes=1195552 coll=11520 rows=31",
	"RMA/color colors=8 hash=358d59add0ed2203 vt=3f734f6020085699 rounds=14 msgs=7020 bytes=718080 coll=6400 rows=15",
	"NCL/match-half card=570 weight=40e54986e6986270 hash=e1f6bd0eabf55fa7 vt=3f727efd2702dc46 rounds=8 msgs=5507 bytes=425288 coll=3200 rows=9",
	"NCL/match-maximal card=581 hash=e46b383989874132 vt=3f9134d6ccacf8a6 rounds=30 msgs=2488 bytes=1158912 coll=10240 rows=31",
	"NCL/color colors=8 hash=358d59add0ed2203 vt=3f801cffd7198e93 rounds=14 msgs=7020 bytes=681440 coll=5120 rows=15",
	"NCLI/match-half card=570 weight=40e54986e6986270 hash=e1f6bd0eabf55fa7 vt=3f72d79dca2194f0 rounds=16 msgs=5507 bytes=132168 coll=5760 rows=17",
	"NCLI/match-maximal card=581 hash=e46b383989874132 vt=3f91879a6e78d513 rounds=60 msgs=2488 bytes=59712 coll=19840 rows=61",
	"NCLI/color colors=8 hash=358d59add0ed2203 vt=3f806ab531d0df5c rounds=28 msgs=7020 bytes=168480 coll=9600 rows=29",
	"NCLC/match-half card=570 weight=40e54986e6986270 hash=e1f6bd0eabf55fa7 vt=3f6c8e1f1fd26e93 rounds=8 msgs=5516 bytes=636640 coll=9280 rows=9",
	"NCLC/match-maximal card=581 hash=d6156055ee700a0b vt=3f878ff51cf9680e rounds=30 msgs=2490 bytes=293056 coll=16320 rows=31",
	"NCLC/color colors=8 hash=358d59add0ed2203 vt=3f7742a49aca8af8 rounds=14 msgs=7020 bytes=811264 coll=11200 rows=15",
}

func pooledRuns(t *testing.T) []string {
	g := gen.RGG(4*pooledProcs, gen.RGGRadiusForDegree(4*pooledProcs, 6), 5)
	var lines []string
	for _, m := range transport.Models {
		if m.Flavor() != transport.FlavorRound {
			continue
		}
		key := func(app string) string { return fmt.Sprintf("%v/%s", m, app) }
		half, err := matching.Run(g, matching.Options{Procs: pooledProcs, Model: m, RoundLog: goldenRoundLog, Deadline: goldenDeadline})
		if err != nil {
			t.Fatalf("%s: %v", key("match-half"), err)
		}
		lines = append(lines, goldenLine(key("match-half"),
			fmt.Sprintf("card=%d weight=%016x hash=%016x", half.Cardinality, math.Float64bits(half.Weight), hashInts(half.Mate)),
			true, half.Report, half.Rounds, half.Messages, half.Telemetry))
		mx, err := matching.Run(g, matching.Options{Procs: pooledProcs, Model: m, Engine: matching.EngineMaximal,
			RoundLog: goldenRoundLog, Deadline: goldenDeadline})
		if err != nil {
			t.Fatalf("%s: %v", key("match-maximal"), err)
		}
		lines = append(lines, goldenLine(key("match-maximal"),
			fmt.Sprintf("card=%d hash=%016x", mx.Cardinality, hashInts(mx.Mate)),
			true, mx.Report, mx.Rounds, mx.Messages, mx.Telemetry))
		col, err := coloring.Run(g, coloring.Options{Procs: pooledProcs, Model: m, RoundLog: goldenRoundLog, Deadline: goldenDeadline})
		if err != nil {
			t.Fatalf("%s: %v", key("color"), err)
		}
		lines = append(lines, goldenLine(key("color"),
			fmt.Sprintf("colors=%d hash=%016x", col.Colors, hashInts(col.Color)),
			true, col.Report, col.Rounds, col.Messages, col.Telemetry))
	}
	return lines
}

// TestPooledRoundsDigest runs the round-flavour models in a pooled world
// at GOMAXPROCS 1, 2 and 4 — one executor, and several running each
// other's ranks — against the pinned digest.
func TestPooledRoundsDigest(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := pooledRuns(t)
		runtime.GOMAXPROCS(old)
		for i, line := range got {
			if i >= len(pooledDigest) || line != pooledDigest[i] {
				want := "<missing>"
				if i < len(pooledDigest) {
					want = pooledDigest[i]
				}
				t.Errorf("GOMAXPROCS=%d line %d:\n got  %s\n want %s", procs, i+1, line, want)
			}
		}
	}
}
