package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// This file covers Comm.Steps and the step forms outside the
// neighborhood carrier's differential (nbr_reference_test.go): a round
// loop over every kind of wait, run as steps by some ranks and blocking
// by the others, against the all-blocking run; a failing step; a step
// that waits forever; and a blocking call where a step form belongs.

// stepRounds is the round loop of stepBody: a flat count exchange, a
// vector exchange, a nonblocking exchange completed in the same round, a
// vector and a scalar reduction, and a barrier every other round — every
// kind of wait a step form has. Ops run in one order whether the loop is
// a step or blocking, so clocks, events and results must agree bit for
// bit.
type stepRounds struct {
	c      *Comm
	t      *Topo
	round  int
	op     int
	acc    int64
	counts []int64
	in     []int64
	send   [][]int64
	recv   [][]int64
	req    *NbrRequest
	vec    []int64
}

const stepRoundsN = 6

func newStepRounds(c *Comm) *stepRounds {
	r, n := c.Rank(), c.Size()
	nbrs := []int{(r + 1) % n, (r + n - 1) % n, (r + 2) % n, (r + n - 2) % n}
	t := c.CreateGraphTopo(nbrs)
	return &stepRounds{c: c, t: t, counts: make([]int64, len(nbrs)), in: make([]int64, len(nbrs)),
		send: make([][]int64, len(nbrs)), recv: make([][]int64, len(nbrs))}
}

// do runs the loop with blocking calls, or as a step with step forms: it
// then reports false wherever a step form does and resumes there.
func (s *stepRounds) do(step bool) bool {
	c, me := s.c, int64(s.c.Rank())
	for ; s.round < stepRoundsN; s.round++ {
		k := int64(s.round)
		for ; s.op < 6; s.op++ {
			switch s.op {
			case 0:
				for i := range s.counts {
					s.counts[i] = me*100 + k*10 + int64(i)
				}
				if step {
					if !s.t.NeighborAlltoallInt64Step(s.counts, 1, s.in) {
						return false
					}
				} else {
					s.in = s.t.NeighborAlltoallInt64(s.counts, 1)
				}
				for _, x := range s.in {
					s.acc = s.acc*31 + x
				}
			case 1:
				for i := range s.send {
					s.send[i] = append(s.send[i][:0], me, k, int64(i), s.in[i]%7)
				}
				if step {
					if !s.t.NeighborAlltoallvInt64Step(s.send, s.recv) {
						return false
					}
				} else {
					s.recv = s.t.NeighborAlltoallvInt64(s.send)
				}
				for _, data := range s.recv {
					for _, x := range data {
						s.acc = s.acc*31 + x
					}
				}
				c.Compute(float64(s.acc & 3))
			case 2:
				if s.req == nil {
					s.req = s.t.INeighborAlltoallvInt64(s.send)
					// Misses on an empty mailbox: a step must not yield.
					for range pollYieldEvery + 1 {
						c.Iprobe(AnySource, 99)
					}
				}
				if step {
					if !s.req.WaitStep(s.recv) {
						return false
					}
				} else {
					s.req.WaitInto(s.recv)
				}
				s.req = nil
				s.acc = s.acc*31 + int64(len(s.recv[0]))
			case 3:
				in := []int64{me + k, -me, s.acc & 0xff}
				if step {
					// Store the result only once it is there: after a
					// false return the rank may be running elsewhere.
					out, ok := c.AllreduceInt64Step(OpMax, in, s.vec)
					if !ok {
						return false
					}
					s.vec = out
				} else {
					s.vec = c.AllreduceInt64(OpMax, in)
				}
				s.acc = s.acc*31 + s.vec[0] + s.vec[2]
			case 4:
				var sum int64
				if step {
					var ok bool
					if sum, ok = c.AllreduceScalarInt64Step(OpSum, me+k); !ok {
						return false
					}
				} else {
					sum = c.AllreduceScalarInt64(OpSum, me+k)
				}
				s.acc = s.acc*31 + sum
			case 5:
				if k%2 == 1 {
					if step {
						if !c.BarrierStep() {
							return false
						}
					} else {
						c.Barrier()
					}
				}
			}
		}
		s.op = 0
	}
	return true
}

// stepBody runs stepRounds between blocking collectives; ranks for which
// stepped reports true run the loop as a step.
func stepBody(res []int64, stepped func(rank int) bool) func(c *Comm) error {
	return func(c *Comm) error {
		s := newStepRounds(c)
		c.Barrier()
		if stepped(c.Rank()) {
			c.Steps(func() bool { return s.do(true) })
		} else {
			s.do(false)
		}
		res[c.Rank()] = s.acc + c.AllreduceScalarInt64(OpSum, s.acc&0xffff)
		return nil
	}
}

// TestStepsMatchBlocking runs stepRounds blocking everywhere, as steps
// everywhere, and as steps on every third rank, under both schedulers at
// GOMAXPROCS 1, 4 and max: results, clocks and event logs must match the
// all-blocking direct-mode run.
func TestStepsMatchBlocking(t *testing.T) {
	const p = 96
	run := func(mode SchedMode, stepped func(int) bool) (*Report, []int64) {
		res := make([]int64, p)
		rep, err := Run(p, stepBody(res, stepped), WithScheduler(mode), WithEventTrace(1<<12), WithDeadline(30*time.Second))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return rep, res
	}
	wantRep, wantRes := run(SchedDirect, func(int) bool { return false })
	placements := map[string]func(int) bool{
		"all":         func(int) bool { return true },
		"every third": func(r int) bool { return r%3 == 0 },
	}
	for name, stepped := range placements {
		for _, mode := range schedModes {
			for _, procs := range []int{1, 4, runtime.NumCPU()} {
				withMaxProcs(procs, func() {
					label := fmt.Sprintf("%s %v GOMAXPROCS=%d", name, mode, procs)
					rep, res := run(mode, stepped)
					for r := range res {
						if res[r] != wantRes[r] {
							t.Fatalf("%s: rank %d result %d, want %d", label, r, res[r], wantRes[r])
						}
						if rep.FinalTimes[r] != wantRep.FinalTimes[r] {
							t.Fatalf("%s: rank %d clock %v, want %v", label, r, rep.FinalTimes[r], wantRep.FinalTimes[r])
						}
						if got, want := fmt.Sprint(flatEvents(rep.Events(r))), fmt.Sprint(flatEvents(wantRep.Events(r))); got != want {
							t.Fatalf("%s: rank %d events differ:\n got  %s\n want %s", label, r, got, want)
						}
					}
				})
			}
		}
	}
}

// TestStepPanicNamesItsRank: a step that panics on another rank's
// goroutine is raised by its own rank, whose failure poisons the peers
// waiting in the step forms.
func TestStepPanicNamesItsRank(t *testing.T) {
	for _, mode := range schedModes {
		res := make([]int64, 64)
		_, err := Run(64, func(c *Comm) error {
			s := newStepRounds(c)
			c.Steps(func() bool {
				if c.Rank() == 5 && s.round == 2 {
					panic("boom")
				}
				return s.do(true)
			})
			res[c.Rank()] = s.acc
			return nil
		}, WithScheduler(mode), WithDeadline(30*time.Second))
		if err == nil || !strings.Contains(err.Error(), "rank 5 panicked: boom") {
			t.Errorf("%v: error %v, want rank 5's panic", mode, err)
		}
	}
}

// TestStepsDeadline: steps that wait on a neighbor that never publishes
// unwind at the deadline under both schedulers.
func TestStepsDeadline(t *testing.T) {
	for _, mode := range schedModes {
		start := time.Now()
		_, err := Run(64, func(c *Comm) error {
			s := newStepRounds(c)
			if c.Rank() != 7 {
				c.Steps(func() bool { return s.do(true) })
			}
			return nil
		}, WithScheduler(mode), WithDeadline(300*time.Millisecond))
		if err == nil || !strings.Contains(err.Error(), "deadline") {
			t.Errorf("%v: error %v, want the deadline", mode, err)
		}
		if el := time.Since(start); el > 10*time.Second {
			t.Errorf("%v: teardown took %v", mode, el)
		}
	}
}

// TestBlockingCallInStepPanics: a step that would park on a blocking
// call fails loudly instead of parking another rank's goroutine.
func TestBlockingCallInStepPanics(t *testing.T) {
	for _, mode := range schedModes {
		_, err := Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				c.Steps(func() bool {
					c.Recv(1, 0) // rank 1 never sends
					return true
				})
			}
			return nil
		}, WithScheduler(mode), WithDeadline(30*time.Second))
		if err == nil || !strings.Contains(err.Error(), "blocking call inside a step") {
			t.Errorf("%v: error %v, want the blocking-call panic", mode, err)
		}
	}
}
