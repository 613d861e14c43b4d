package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestBarrierSynchronizesClocks(t *testing.T) {
	rep, err := runChecked(4, func(c *Comm) error {
		c.Compute(float64(c.Rank()) * 1000) // skew clocks
		c.Barrier()
		// After a barrier, all clocks are (at least) the maximum pre-barrier
		// clock; the slowest rank had ~3000 units.
		min := 3000 * c.Cost().ComputePerUnit
		if c.Now() < min {
			t.Errorf("rank %d clock %g after barrier, want >= %g", c.Rank(), c.Now(), min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestAllreduceInt64Ops(t *testing.T) {
	const p = 5
	_, err := runChecked(p, func(c *Comm) error {
		r := int64(c.Rank())
		in := []int64{r + 1, r + 1}
		sum := c.AllreduceInt64(OpSum, in)
		if sum[0] != 15 || sum[1] != 15 {
			t.Errorf("sum = %v, want [15 15]", sum)
		}
		if mx := c.AllreduceInt64(OpMax, in); mx[0] != 5 {
			t.Errorf("max = %v, want 5", mx)
		}
		if mx := c.AllreduceScalarInt64(OpMax, -r); mx != 0 {
			t.Errorf("scalar max = %d, want 0", mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// allgatherInt64 gathers each rank's vector onto all ranks; result[r] is
// rank r's contribution. Contributions may differ in length (MPI's
// Allgatherv generality). No application gathers, so it lives here: the
// tests use it to drive the hub's deposit slots, and the neighborhood
// reference (refTopo) to verify topologies as CreateGraphTopo once did.
func (c *Comm) allgatherInt64(mine []int64) [][]int64 {
	h, p, tmax, last := c.enterColl(func(h *collHub, p int) {
		h.ensureDeps()
		h.deps[p][c.rank] = mine
	})
	deps := h.deps[p]
	out := make([][]int64, c.w.n)
	for r := range out {
		out[r] = append([]int64(nil), deps[r].([]int64)...)
	}
	c.exitColl(tmax, last, int64(8*len(mine)))
	return out
}

// TestAllgatherBcastGatherReduce: the gather is the test allgather; the
// broadcast is the OpMax reduction newID draws through (the root sends
// its payload, every other rank zeros); the reduce is an OpSum allreduce.
func TestAllgatherBcastGatherReduce(t *testing.T) {
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		all := c.allgatherInt64([]int64{int64(c.Rank() * 2)})
		for r := 0; r < p; r++ {
			if all[r][0] != int64(r*2) {
				t.Errorf("allgather[%d] = %v", r, all[r])
			}
		}
		payload := make([]int64, 3)
		if c.Rank() == 2 {
			payload = []int64{7, 8, 9}
		}
		if b := c.AllreduceInt64(OpMax, payload); len(b) != 3 || b[0] != 7 || b[2] != 9 {
			t.Errorf("bcast got %v", b)
		}
		if s := c.AllreduceInt64(OpSum, []int64{int64(c.Rank()), 1}); s[0] != 6 || s[1] != p {
			t.Errorf("reduce got %v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMatchesLocalFoldQuick(t *testing.T) {
	// Property: for random vectors, Allreduce(sum) equals the serial fold.
	f := func(seed int64, width uint8) bool {
		p := 3
		w := int(width%8) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]int64, p)
		for r := range inputs {
			inputs[r] = make([]int64, w)
			for i := range inputs[r] {
				inputs[r][i] = rng.Int63n(1 << 30)
			}
		}
		want := make([]int64, w)
		for _, in := range inputs {
			for i, v := range in {
				want[i] += v
			}
		}
		ok := true
		_, err := runChecked(p, func(c *Comm) error {
			got := c.AllreduceInt64(OpSum, inputs[c.Rank()])
			for i := range want {
				if got[i] != want[i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveDeterministicAcrossRanks(t *testing.T) {
	// Reductions fold in arrival order within a shard; a wrapping sum
	// is still associative and commutative, so all ranks get
	// bit-identical results whatever the schedule.
	const p = 6
	_, err := runChecked(p, func(c *Comm) error {
		in := []int64{math.MaxInt64/3 + int64(c.Rank())}
		out := c.AllreduceInt64(OpSum, in)
		all := c.allgatherInt64(out)
		for r := 1; r < p; r++ {
			if all[r][0] != all[0][0] {
				t.Error("allreduce result differs between ranks")
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func floatBits(f float64) uint64 {
	return math.Float64bits(f)
}

// TestDepositSlotsShared: CreateGraphTopo's creation round (joinTopo)
// and WinCreate are the only rounds that use the hub's one parity set of
// deposit slots; newID and the reductions between them fold through the
// shards and leave the slots alone. The body creates one window after an
// odd number of collectives and one after an even number, so WinCreate's
// republish into the next round's set lands in both parities, and it
// checks every rank's windows, topology peers, ids and reduced values. It runs in a direct world and twice
// in a pooled one; the body's collective count is odd, so the second
// run, which reuses the first's kept skeleton and so its hub, carries on
// from the first run's round count and swaps the parities.
func TestDepositSlotsShared(t *testing.T) {
	for _, tc := range []struct{ n, runs int }{{40, 1}, {pooledMinProcs + 44, 2}} {
		var prevHub *collHub
		var prevGen int64
		for run := 0; run < tc.runs; run++ {
			n := tc.n
			wins := make([][2]*Win, n)
			var hub *collHub
			var startGen int64
			_, err := Run(n, func(c *Comm) error {
				r := c.Rank()
				gen := c.w.hub.gen.Load()
				if r == 0 {
					hub, startGen = c.w.hub, gen
				}
				if run > 0 && (c.w.hub != prevHub || gen != prevGen) {
					return fmt.Errorf("rank %d: run %d starts on hub %p at round %d, want the first run's %p at round %d", r, run, c.w.hub, gen, prevHub, prevGen)
				}
				id0 := c.newID()                                               // 1 collective before the first window
				a := c.WinCreate(r + 1)                                        // 3 more
				topo := c.CreateGraphTopo([]int{(r + n - 1) % n, (r + 1) % n}) // 2 more
				b := c.WinCreate(2*r + 3)                                      // after 6
				data := make([]int64, 2)
				if r == n-1 {
					data = []int64{int64(run), 77}
				}
				got := c.AllreduceInt64(OpMax, data)
				id1 := c.newID() // 11 collectives in all
				wins[r] = [2]*Win{a.win, b.win}

				if id0 != 1 || id1 != 4 {
					return fmt.Errorf("rank %d: ids %d, %d, want 1, 4", r, id0, id1)
				}
				if len(got) != 2 || got[0] != int64(run) || got[1] != 77 {
					return fmt.Errorf("rank %d: reduced %v, want [%d 77]", r, got, run)
				}
				for k, v := range []WinHandle{a, b} {
					if len(v.win.bufs) != n {
						return fmt.Errorf("rank %d: window %d has %d buffers, want %d", r, k, len(v.win.bufs), n)
					}
					for q, buf := range v.win.bufs {
						if want := []int{q + 1, 2*q + 3}[k]; buf.size != want {
							return fmt.Errorf("rank %d: window %d buffer of rank %d holds %d words, want %d", r, k, q, buf.size, want)
						}
					}
				}
				for i, p := range topo.peers {
					if p.c.rank != topo.neighbors[i] || p.NeighborIndex(r) != int(topo.at[i]) {
						return fmt.Errorf("rank %d: peer %d is rank %d's topology, want rank %d's", r, i, p.c.rank, topo.neighbors[i])
					}
				}
				recv := topo.NeighborAlltoallInt64([]int64{int64(r), int64(r)}, 1)
				if recv[0] != int64(topo.neighbors[0]) || recv[1] != int64(topo.neighbors[1]) {
					return fmt.Errorf("rank %d: exchange got %v from %v", r, recv, topo.neighbors)
				}
				return nil
			}, WithDeadline(30*time.Second))
			if err != nil {
				t.Fatalf("n=%d run %d: %v", n, run, err)
			}
			prevHub, prevGen = hub, hub.gen.Load()
			if (prevGen-startGen)%2 != 1 {
				t.Fatalf("n=%d run %d took rounds %d to %d, want an odd count", n, run, startGen, prevGen)
			}
			for r, w := range wins {
				if w != wins[0] || w[0] == w[1] {
					t.Fatalf("n=%d run %d: rank %d holds windows %p, %p; rank 0 %p, %p", n, run, r, w[0], w[1], wins[0][0], wins[0][1])
				}
			}
		}
	}
}

// collCall is one call of a random collective program: a barrier, a
// vector or scalar allreduce, or a mixed round in which some ranks call
// the scalar form and the others a width-1 vector allreduce (MPI's
// count-1 allreduce), run blocking or as a step form inside Comm.Steps.
type collCall struct {
	kind  int
	op    ReduceOp
	width int
	step  bool
}

const (
	collBarrier = iota
	collVec
	collScalar
	collMixed
)

// collProgram draws a program for p ranks: per ReduceOp, two vector
// allreduces of width 1-8, two scalar ones and two mixed rounds, plus
// four barriers, shuffled, each call a step form half the time.
func collProgram(rng *rand.Rand) []collCall {
	var prog []collCall
	for op := OpSum; op <= OpMax; op++ {
		for range 2 {
			prog = append(prog, collCall{kind: collVec, op: op, width: 1 + rng.Intn(8)},
				collCall{kind: collScalar, op: op, width: 1}, collCall{kind: collMixed, op: op, width: 1})
		}
	}
	for range 4 {
		prog = append(prog, collCall{kind: collBarrier})
	}
	rng.Shuffle(len(prog), func(i, j int) { prog[i], prog[j] = prog[j], prog[i] })
	for i := range prog {
		prog[i].step = rng.Intn(2) == 0
	}
	return prog
}

// collInput is rank's contribution to call k.
func collInput(seed uint64, k, rank int, call collCall) []int64 {
	in := make([]int64, call.width)
	for j := range in {
		in[j] = int64(mix64(mix64(mix64(seed, uint64(k)), uint64(rank)), uint64(j)))
	}
	return in
}

// scalarIn reports whether rank takes the scalar form in a mixed call k.
func scalarIn(seed uint64, k, rank int) bool {
	return mix64(mix64(seed^0x5ca1a7, uint64(k)), uint64(rank))&1 == 0
}

// collReference is what every rank must get from call k: the inputs
// folded in rank order by the textbook definition of the op, nothing for
// a barrier.
func collReference(seed uint64, k, p int, call collCall) []int64 {
	if call.kind == collBarrier {
		return nil
	}
	acc := collInput(seed, k, 0, call)
	for r := 1; r < p; r++ {
		for j, v := range collInput(seed, k, r, call) {
			switch call.op {
			case OpSum:
				acc[j] += v
			case OpMax:
				acc[j] = max(acc[j], v)
			}
		}
	}
	return acc
}

// collOracleBody runs prog on every rank, charging each rank a
// different amount of compute before each blocking call or run of step
// calls so the collectives synchronize skewed clocks, and fails the rank
// on the first result that differs from the reference. A step form that
// reports false has deposited its input, which the rank then overwrites:
// the hub must have copied it.
func collOracleBody(seed uint64, prog []collCall, want [][]int64) func(c *Comm) error {
	return func(c *Comm) error {
		r := c.Rank()
		var bad error
		check := func(k int, got []int64) {
			if bad == nil && !slices.Equal(got, want[k]) {
				bad = fmt.Errorf("rank %d, call %d (%+v): got %v, want %v", r, k, prog[k], got, want[k])
			}
		}
		scalar := func(k int, call collCall) bool {
			return call.kind == collScalar || call.kind == collMixed && scalarIn(seed, k, r)
		}
		for k := 0; k < len(prog); {
			c.Compute(float64(mix64(seed, uint64(r*len(prog)+k)) % 64))
			call := prog[k]
			if !call.step {
				switch {
				case call.kind == collBarrier:
					c.Barrier()
					check(k, nil)
				case scalar(k, call):
					check(k, []int64{c.AllreduceScalarInt64(call.op, collInput(seed, k, r, call)[0])})
				default:
					check(k, c.AllreduceInt64(call.op, collInput(seed, k, r, call)))
				}
				k++
				continue
			}
			// The run of step calls from k is one resumable program: i
			// and out change only after a step form reported true.
			end := k
			for end < len(prog) && prog[end].step {
				end++
			}
			i, out := k, []int64(nil)
			c.Steps(func() bool {
				for ; i < end; i++ {
					call := prog[i]
					switch {
					case call.kind == collBarrier:
						if !c.BarrierStep() {
							return false
						}
						check(i, nil)
					case scalar(i, call):
						got, ok := c.AllreduceScalarInt64Step(call.op, collInput(seed, i, r, call)[0])
						if !ok {
							return false
						}
						check(i, []int64{got})
					default:
						in := collInput(seed, i, r, call)
						got, ok := c.AllreduceInt64Step(call.op, in, out)
						if !ok {
							clear(in)
							return false
						}
						out = got
						check(i, got)
					}
				}
				return true
			})
			k = end
		}
		return bad
	}
}

// TestCollectivesMatchRankOrderedFold is the collective oracle: random
// programs of barriers and of vector, scalar and mixed scalar/width-1
// allreduces over both ops, blocking and as step forms, at one hub
// shard (p=3), several (p=130) and the pooled executor's sizes (p=300).
// Every rank's every result must equal a rank-ordered fold of the
// inputs, and the clocks must be bit-identical under SchedDirect and
// SchedWorkers. After a run poisoned mid-collective, a clean run builds
// a fresh skeleton and a second reuses it; both must match too.
func TestCollectivesMatchRankOrderedFold(t *testing.T) {
	for _, p := range []int{3, 130, 300} {
		var body func(c *Comm) error
		var fp uint64
		for seed := uint64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(int64(seed)*1000 + int64(p)))
			prog := collProgram(rng)
			want := make([][]int64, len(prog))
			for k, call := range prog {
				want[k] = collReference(seed, k, p, call)
			}
			body = collOracleBody(seed, prog, want)
			for i, mode := range schedModes {
				rep, err := RunChecked(p, body, WithScheduler(mode), WithDeadline(60*time.Second))
				if err != nil {
					t.Fatalf("p=%d seed=%d %v: %v", p, seed, mode, err)
				}
				if got := clockFingerprint(rep); i == 0 {
					fp = got
				} else if got != fp {
					t.Errorf("p=%d seed=%d: clock fingerprint %#x under %v, %#x under %v", p, seed, got, mode, fp, schedModes[0])
				}
			}
		}
		_, err := Run(p, func(c *Comm) error {
			c.AllreduceScalarInt64(OpSum, 1)
			if c.Rank() == p/2 {
				return fmt.Errorf("injected failure")
			}
			c.Steps(func() bool {
				_, ok := c.AllreduceScalarInt64Step(OpMax, int64(c.Rank()))
				return ok
			})
			return nil
		}, WithDeadline(60*time.Second))
		if err == nil {
			t.Fatalf("p=%d: the poisoned run returned no error", p)
		}
		for run := 0; run < 2; run++ {
			if run == 1 && idleWorld(p) == nil {
				t.Fatalf("p=%d: no idle skeleton to reuse after a clean run", p)
			}
			rep, err := RunChecked(p, body, WithDeadline(60*time.Second))
			if err != nil {
				t.Fatalf("p=%d, clean run %d after the poisoned one: %v", p, run, err)
			}
			if got := clockFingerprint(rep); got != fp {
				t.Errorf("p=%d, clean run %d after the poisoned one: clock fingerprint %#x, want %#x", p, run, got, fp)
			}
		}
	}
}
