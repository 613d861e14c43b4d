package driver_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// stuck is a kernel that never finishes: its count stays at one and,
// under a detector, it reports a record that is never sent, so the ring
// can never conclude. Only the deadline ends its loop.
type stuck struct{ q *mpi.Quiesce }

func (k *stuck) Start() {
	if k.q != nil {
		k.q.NoteSend(1)
	}
}
func (k *stuck) DrainWork()                 {}
func (k *stuck) Pending() int64             { return 1 }
func (k *stuck) InFlight() int64            { return 0 }
func (k *stuck) Row() (_, _, _, _, _ int64) { return 1, 0, 0, 0, 0 }
func (k *stuck) handle(ctx, x, y int64)     {}

// TestFailurePaths drives every way a run can fail through the one
// scaffolding: the body fails on one rank while its peers are inside a
// loop (NCLI's pipelined rounds among them), the deadline expires inside
// each of the three loops under every backend shape, and the backend
// cannot be built. The error must surface, no rank goroutine may
// outlive the run, and a real run of the same world size right after
// must be exact and balanced. A failed world's skeleton is never kept
// for reuse, so the run after starts on a skeleton no failed run
// touched.
func TestFailurePaths(t *testing.T) {
	const procs = 4
	g := gen.SBP(300, 6, 8, 0.5, 7)
	serial := matching.Serial(g)
	boom := errors.New("boom: kernel construction failed on rank 1")

	loop := func(r *driver.Rank) error {
		k := &stuck{q: r.Quiesce}
		r.Loop(k, k.handle)
		return nil
	}
	failOnRank1 := func(r *driver.Rank) error {
		if r.Comm.Rank() == 1 {
			return boom
		}
		return loop(r)
	}
	cases := []struct {
		name  string
		model transport.Model
		proto driver.Protocol
		body  func(*driver.Rank) error
		want  string
	}{
		{"body-error/poll", transport.ModelNSR, driver.Protocol{MaxPerArc: 1}, failOnRank1, "boom"},
		{"body-error/rounds", transport.ModelNCL, driver.Protocol{MaxPerArc: 1}, failOnRank1, "boom"},
		{"body-error/rounds-pipelined", transport.ModelNCLI, driver.Protocol{MaxPerArc: 1}, failOnRank1, "boom"},
		{"deadline/poll-counted", transport.ModelNSR, driver.Protocol{MaxPerArc: 1}, loop, "deadline"},
		{"deadline/poll-detected", transport.ModelNSRA, driver.Protocol{MaxPerArc: 1, Detect: true}, loop, "deadline"},
		{"deadline/rounds", transport.ModelNCL, driver.Protocol{MaxPerArc: 1}, loop, "deadline"},
		{"deadline/rounds-detected", transport.ModelRMA, driver.Protocol{MaxPerArc: 1, Detect: true}, loop, "deadline"},
		{"deadline/rounds-fenced", transport.ModelNSR, driver.Protocol{MaxPerArc: 1, Detect: true, ForceRounds: true}, loop, "deadline"},
		{"deadline/poll-synchronous", transport.ModelMBP, driver.Protocol{MaxPerArc: 1}, loop, "deadline"},
		{"deadline/rounds-pipelined", transport.ModelNCLI, driver.Protocol{MaxPerArc: 1}, loop, "deadline"},
		{"deadline/rounds-combined", transport.ModelNCLC, driver.Protocol{MaxPerArc: 1}, loop, "deadline"},
		{"backend-rejected/rounds", transport.ModelNCL, driver.Protocol{MaxPerArc: 0}, loop, "MaxPerArc"},
		{"backend-rejected/unknown-model", transport.Model(99), driver.Protocol{MaxPerArc: 1}, loop, "unknown model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clean := func(when string) {
				m := tc.model
				if _, err := transport.ParseModel(m.String()); err != nil {
					m = transport.ModelNSR // the unknown model has no clean run
				}
				res, err := matching.Run(g, matching.Options{Procs: procs, Model: m, Deadline: time.Minute})
				if err != nil {
					t.Fatalf("clean run %s: %v", when, err)
				}
				if res.Weight != serial.Weight || res.Cardinality != serial.Cardinality {
					t.Errorf("clean run %s: weight %v card %d, serial %v/%d", when, res.Weight, res.Cardinality, serial.Weight, serial.Cardinality)
				}
				if err := mpi.CheckBalanced(res.Report); err != nil {
					t.Errorf("clean run %s: %v", when, err)
				}
			}
			clean("before")
			baseline := runtime.NumGoroutine()
			tc.proto.App = "failtest"
			res, err := driver.Run(g, driver.Options{Procs: procs, Model: tc.model, Deadline: 200 * time.Millisecond}, tc.proto, tc.body)
			if err == nil || res != nil {
				t.Fatalf("run succeeded (result %v), want an error containing %q", res, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
			if err := mpi.CheckGoroutines(baseline); err != nil {
				t.Errorf("failed run leaked: %v", err)
			}
			clean("after")
			if err := mpi.CheckGoroutines(baseline); err != nil {
				t.Errorf("run after the failure leaked: %v", err)
			}
		})
	}
}
