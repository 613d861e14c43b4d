package driver_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const (
	goldenPath     = "testdata/golden.txt"
	goldenRoundLog = 256
	goldenDeadline = 2 * time.Minute
)

func hashInts[T int | int32](v []T) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenLine renders one run. A run whose loop is round-structured is
// deterministic in virtual time and in every count, so all of it is
// pinned; an async run's clock and record counts move with the host
// schedule, so only its result is.
func goldenLine(key, result string, pinned bool, rep *mpi.Report, rounds int, msgs int64, tel *telemetry.Series) string {
	if !pinned {
		return key + " " + result
	}
	tot := rep.Totals()
	return fmt.Sprintf("%s %s vt=%016x rounds=%d msgs=%d bytes=%d coll=%d rows=%d",
		key, result, math.Float64bits(rep.MaxVirtualTime), rounds, msgs, tot.Bytes, tot.CollOps, tel.Rounds())
}

// goldenRuns executes the whole matrix — two inputs, four applications
// (matching twice more for the maximal engine and its round-fenced
// baseline), seven models, two world sizes — and returns its sorted
// digest lines.
func goldenRuns(t *testing.T) []string {
	inputs := []struct {
		name string
		g    *graph.CSR
	}{
		{"rgg", gen.RGG(600, gen.RGGRadiusForDegree(600, 6), 1)},
		{"sbp", gen.SBP(400, 8, 8, 0.5, 3)},
	}
	var lines []string
	for _, in := range inputs {
		g := in.g
		// BFS from the heaviest vertex: vertex 0 of a sparse RGG may sit
		// in a component of two.
		root := 0
		for v := 1; v < g.NumVertices(); v++ {
			if g.Degree(v) > g.Degree(root) {
				root = v
			}
		}
		for _, m := range transport.Models {
			round := m.Flavor() == transport.FlavorRound
			for _, p := range []int{4, 16} {
				key := func(app string) string { return fmt.Sprintf("%s/%s/%v/p%d", in.name, app, m, p) }
				fail := func(app string, err error) { t.Fatalf("%s: %v", key(app), err) }

				half, err := matching.Run(g, matching.Options{Procs: p, Model: m, RoundLog: goldenRoundLog, Deadline: goldenDeadline})
				if err != nil {
					fail("match-half", err)
				}
				lines = append(lines, goldenLine(key("match-half"),
					fmt.Sprintf("card=%d weight=%016x hash=%016x", half.Cardinality, math.Float64bits(half.Weight), hashInts(half.Mate)),
					round, half.Report, half.Rounds, half.Messages, half.Telemetry))

				for _, forced := range []bool{false, true} {
					app := "match-maximal"
					if forced {
						app = "match-maximal-rounds"
					}
					mx, err := matching.Run(g, matching.Options{Procs: p, Model: m, Engine: matching.EngineMaximal, ForceRounds: forced,
						RoundLog: goldenRoundLog, Deadline: goldenDeadline})
					if err == nil {
						err = matching.VerifyMaximal(g, mx.Result)
					}
					if err != nil {
						fail(app, err)
					}
					// Which maximal matching emerges over a point-to-point
					// backend depends on the schedule, and so do its clock and
					// counts — measured for the fenced baseline too, whose
					// rows moved run to run: maximality is all those runs
					// promise.
					result := "maximal=ok"
					if round {
						result = fmt.Sprintf("maximal=ok card=%d hash=%016x", mx.Cardinality, hashInts(mx.Mate))
					}
					lines = append(lines, goldenLine(key(app), result, round, mx.Report, mx.Rounds, mx.Messages, mx.Telemetry))
				}

				col, err := coloring.Run(g, coloring.Options{Procs: p, Model: m, RoundLog: goldenRoundLog, Deadline: goldenDeadline})
				if err == nil {
					err = coloring.Verify(g, col.Result)
				}
				if err != nil {
					fail("color", err)
				}
				lines = append(lines, goldenLine(key("color"),
					fmt.Sprintf("colors=%d hash=%016x", col.Colors, hashInts(col.Color)),
					round, col.Report, col.Rounds, col.Messages, col.Telemetry))

				b, err := bfs.Run(g, root, bfs.Options{Procs: p, Model: m, RoundLog: goldenRoundLog, Deadline: goldenDeadline})
				if err == nil {
					err = bfs.Verify(g, root, b, nil)
				}
				if err != nil {
					fail("bfs", err)
				}
				var visits int64
				for _, pt := range b.Telemetry.Points {
					visits += pt.Req
				}
				lines = append(lines, goldenLine(key("bfs"),
					fmt.Sprintf("levels=%d visited=%d hash=%016x", b.Levels, b.Visited, hashInts(b.Level)),
					round, b.Report, b.Levels, visits, b.Telemetry))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// TestGoldenDigest pins what every application computes under every
// communication model, and for the deterministic runs also when (the
// virtual-time bits) and with how much traffic. A refactor that moves
// any of it fails here; an intended change regenerates the file with
// -update and shows up as a reviewable diff of a few lines.
func TestGoldenDigest(t *testing.T) {
	got := strings.Join(goldenRuns(t), "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGoldenDigest -update)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, line, w)
		}
	}
	t.Fatalf("digest differs from %s; if the change is intended, regenerate with -update", goldenPath)
}
