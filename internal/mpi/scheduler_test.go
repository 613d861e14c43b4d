package mpi

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

// This file exercises the scheduler modes and the ticket pool that runs
// steps in pooled worlds: mode resolution, correctness of a pooled
// world, clock and result determinism across scheduling modes and
// GOMAXPROCS settings, perturbation replay (with a termination detector's
// private message context beside the world's), poison teardown,
// world-skeleton pooling, the pool's bound on running steps, the
// large-world topology creation path, the 16K-rank smoke/leak test, and
// the tasks' one-slot wake channels.

// schedModes are the two concrete scheduling strategies; every behavioral
// test in this file runs under both so pooled step execution is held to
// exactly the semantics of a rank running its steps on its own goroutine.
var schedModes = []SchedMode{SchedDirect, SchedWorkers}

func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 0x9e3779b97f4a7c15
	return bits.RotateLeft64(h, 29)
}

// withMaxProcs runs f under the given GOMAXPROCS setting, restoring the
// previous value afterwards.
func withMaxProcs(n int, f func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func TestSchedModeResolution(t *testing.T) {
	if got := resolveSched(SchedAuto, pooledMinProcs-1); got != SchedDirect {
		t.Errorf("resolveSched(auto, %d) = %v, want direct", pooledMinProcs-1, got)
	}
	if got := resolveSched(SchedAuto, pooledMinProcs); got != SchedWorkers {
		t.Errorf("resolveSched(auto, %d) = %v, want workers", pooledMinProcs, got)
	}
	if got := resolveSched(SchedDirect, 1<<20); got != SchedDirect {
		t.Errorf("explicit direct not honored at large world: got %v", got)
	}
	if got := resolveSched(SchedWorkers, 2); got != SchedWorkers {
		t.Errorf("explicit workers not honored at small world: got %v", got)
	}
	if n := ticketCount(2); n < 1 || n > 2 {
		t.Errorf("ticketCount(2) = %d, want in [1,2]", n)
	}
	if n := ticketCount(1 << 20); n > maxTickets {
		t.Errorf("ticketCount(1<<20) = %d, want <= %d", n, maxTickets)
	}
	for _, m := range []SchedMode{SchedAuto, SchedDirect, SchedWorkers} {
		if m.String() == "" || strings.Contains(m.String(), "SchedMode") {
			t.Errorf("SchedMode(%d).String() = %q", m, m.String())
		}
	}
}

// TestWorkerPoolBasic runs a world big enough that SchedAuto selects the
// ticket pool and checks a mixed point-to-point + collective workload for
// correct results, balanced ledgers and zero leaked goroutines.
func TestWorkerPoolBasic(t *testing.T) {
	const p = pooledMinProcs + 44 // force pooled under SchedAuto
	rep, err := RunChecked(p, func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		next, prev := (r+1)%n, (r-1+n)%n
		var buf [2]int64
		for k := 0; k < 3; k++ {
			c.Isend(next, k, []int64{int64(r), int64(k)})
			if _, st := c.RecvInto(prev, k, buf[:]); st.Source != prev {
				return fmt.Errorf("rank %d: recv from %d, want %d", r, st.Source, prev)
			}
			if buf[0] != int64(prev) || buf[1] != int64(k) {
				return fmt.Errorf("rank %d round %d: payload %v", r, k, buf)
			}
		}
		c.Barrier()
		if got := c.AllreduceScalarInt64(OpSum, int64(r)); got != int64(n*(n-1)/2) {
			return fmt.Errorf("rank %d: allreduce = %d", r, got)
		}
		return nil
	}, WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	sends, recvs := countP2P(rep)
	if sends != int64(3*p) || recvs != int64(3*p) {
		t.Errorf("totals: sends=%d recvs=%d, want %d each", sends, recvs, 3*p)
	}
}

// countP2P sums point-to-point operation counts over all rank ledgers.
func countP2P(rep *Report) (sends, recvs int64) {
	for _, rs := range rep.Stats {
		sends += rs.SendCount
		recvs += rs.RecvCount
	}
	return
}

// clockBody is an exact-source-only workload (no wildcard receives, no
// probes), for which the deterministic earliest-virtual-arrival matching
// makes every rank's virtual clock — not just the results — a pure function
// of the program. Its fingerprint therefore folds the virtual-time report.
func clockBody(rounds int) func(c *Comm) error {
	return func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		next, prev := (r+1)%n, (r-1+n)%n
		var buf [1]int64
		for k := 0; k < rounds; k++ {
			c.Isend(next, k, []int64{int64(r*31 + k)})
			c.RecvInto(prev, k, buf[:])
			if buf[0] != int64(prev*31+k) {
				return fmt.Errorf("rank %d round %d: got %d", r, k, buf[0])
			}
		}
		c.Barrier()
		vec := c.AllreduceInt64(OpMax, []int64{int64(r), int64(-r)})
		if vec[0] != int64(n-1) || vec[1] != 0 {
			return fmt.Errorf("rank %d: allreduce vec = %v", r, vec)
		}
		c.AllreduceScalarInt64(OpSum, int64(r))
		// A slot collective among fold rounds: consecutive rounds
		// alternate the hub's parity-buffered slots and reduction
		// outputs, so any cross-round reuse bug lands here. Each result
		// feeds the next round's input or the local clock, so a wrong
		// value shifts the fingerprint even if the final payloads happen
		// to agree.
		all := c.allgatherInt64([]int64{int64(r*7 + 1)})
		if got := all[prev][0]; got != int64(prev*7+1) {
			return fmt.Errorf("rank %d: allgather[%d] = %d", r, prev, got)
		}
		c.Compute(float64(all[next][0] % 5))
		id := c.newID()
		if id != 1 {
			return fmt.Errorf("rank %d: newID = %d, want 1", r, id)
		}
		sc := c.AllreduceScalarInt64(OpMax, all[r][0]*3+id)
		if sc != int64((n-1)*7+1)*3+1 {
			return fmt.Errorf("rank %d: scalar max = %d", r, sc)
		}
		c.Compute(float64(sc & 7))
		return nil
	}
}

func clockFingerprint(rep *Report) uint64 {
	h := uint64(0x51ed27f5)
	h = mix64(h, math.Float64bits(rep.MaxVirtualTime))
	for _, rs := range rep.Stats {
		h = mix64(h, uint64(rs.SendCount)<<32|uint64(rs.RecvCount))
		h = mix64(h, math.Float64bits(rs.CommTime))
		h = mix64(h, math.Float64bits(rs.WaitTime))
	}
	return h
}

// TestClockDeterminismAcrossModes asserts the strongest determinism
// property the runtime offers: for exact-source workloads the entire
// virtual-time profile is bit-identical whether ranks run as goroutines or
// as pooled tasks, at any GOMAXPROCS.
func TestClockDeterminismAcrossModes(t *testing.T) {
	const p = 64
	body := clockBody(4)
	var want uint64
	first := true
	for _, mode := range schedModes {
		for _, procs := range []int{1, 4, runtime.NumCPU()} {
			mode, procs := mode, procs
			withMaxProcs(procs, func() {
				rep, err := Run(p, body, WithScheduler(mode), WithDeadline(30*time.Second))
				if err != nil {
					t.Fatalf("%v/GOMAXPROCS=%d: %v", mode, procs, err)
				}
				got := clockFingerprint(rep)
				if first {
					want, first = got, false
				} else if got != want {
					t.Errorf("%v/GOMAXPROCS=%d: clock fingerprint %#x, want %#x", mode, procs, got, want)
				}
			})
		}
	}
}

// wildcardResult is one rank's contribution to the result fingerprint of
// the perturbable workload: only order-insensitive folds of what was
// received, never clocks, since wildcard arrival clocks may legally vary
// with the physical schedule.
func wildcardBody(res []uint64) func(c *Comm) error {
	return func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		next, prev := (r+1)%n, (r-1+n)%n
		acc := uint64(0x9f2e)
		// A second message context, a termination detector's, carries a
		// ring on the fan-in's tag: rank 0's wildcards must never see it.
		priv := NewQuiesce(c).tok
		priv.Isend(next, 7, []int64{int64(r) * 7})
		if r == 0 {
			// Fan-in over AnySource: half via blocking Probe, half via an
			// Iprobe poll loop (exercising forced misses and poll-yield).
			for got := 0; got < n-1; got++ {
				var st Status
				if got%2 == 0 {
					st = c.Probe(AnySource, 7)
				} else {
					for {
						ok, s := c.Iprobe(AnySource, 7)
						if ok {
							st = s
							break
						}
					}
				}
				data, st2 := c.Recv(st.Source, 7)
				// Commutative fold: sum of per-message mixes.
				acc += mix64(uint64(st2.Source), uint64(data[0]))
			}
		} else {
			c.Isend(0, 7, []int64{int64(r) * 1315423911})
		}
		// Exact-source rings: ordered fold is safe here.
		c.Isend(next, 9, []int64{int64(r * r)})
		ring, _ := c.Recv(prev, 9)
		acc = mix64(acc, uint64(ring[0]))
		pring, _ := priv.Recv(AnySource, 7)
		acc = mix64(acc, uint64(pring[0]))
		sum := c.AllreduceScalarInt64(OpSum, int64(r+1))
		acc = mix64(acc, uint64(sum))
		res[r] = acc
		return nil
	}
}

func wildcardRunFunc(p int, mode SchedMode) sched.RunFunc {
	return func(seed uint64, prof sched.Profile) (sched.Outcome, error) {
		res := make([]uint64, p)
		opts := []Option{WithScheduler(mode), WithDeadline(30 * time.Second)}
		if prof.Enabled() {
			opts = append(opts, WithPerturb(seed, prof))
		}
		rep, err := Run(p, wildcardBody(res), opts...)
		if err != nil {
			return sched.Outcome{}, err
		}
		h := uint64(0x2545f491)
		for r, v := range res {
			h = mix64(h, uint64(r)<<32^v)
		}
		sends, recvs := countP2P(rep)
		h = mix64(h, uint64(sends)<<32|uint64(recvs))
		return sched.Outcome{Fingerprint: h, Desc: fmt.Sprintf("p=%d", p)}, nil
	}
}

// TestPerturbReplayAcrossModes asserts that protocol results are invariant
// under every perturbation class, under both scheduling strategies, at
// GOMAXPROCS 1, 4 and max — and that sched.Explore/Replay see identical
// fingerprints, i.e. the perturbation engine survived the scheduler swap.
func TestPerturbReplayAcrossModes(t *testing.T) {
	const p = 24
	// Unperturbed baseline, legacy scheduling: the reference fingerprint.
	base, err := wildcardRunFunc(p, SchedDirect)(0, sched.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	// perturbProfiles (mailbox_test.go) enumerates every class in isolation
	// plus all-off and all-on.
	for pi, prof := range perturbProfiles {
		for _, mode := range schedModes {
			for _, procs := range []int{1, 4, runtime.NumCPU()} {
				prof, mode, procs := prof, mode, procs
				withMaxProcs(procs, func() {
					got, err := wildcardRunFunc(p, mode)(uint64(pi)+1, prof)
					if err != nil {
						t.Fatalf("%v %v/GOMAXPROCS=%d: %v", prof, mode, procs, err)
					}
					if got.Fingerprint != base.Fingerprint {
						t.Errorf("%v %v/GOMAXPROCS=%d: fingerprint %#x, want %#x",
							prof, mode, procs, got.Fingerprint, base.Fingerprint)
					}
				})
			}
		}
		// The explorer itself, driving the pooled scheduler.
		if fail := sched.Explore(wildcardRunFunc(p, SchedWorkers), prof, 42, 5); fail != nil {
			t.Errorf("Explore(%v, pooled): %v", prof, fail)
		}
		if fail := sched.Replay(wildcardRunFunc(p, SchedWorkers), prof, sched.SeedAt(42, 3)); fail != nil {
			t.Errorf("Replay(%v, pooled): %v", prof, fail)
		}
	}
}

// TestDeadlinePoisonBothModes checks that the deadline watchdog can tear
// down a deadlocked world promptly under both schedulers: poisoned
// mailboxes must unpark a task that is parked waiting for a message that
// will never arrive.
func TestDeadlinePoisonBothModes(t *testing.T) {
	for _, mode := range schedModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			start := time.Now()
			_, err := Run(64, func(c *Comm) error {
				if c.Rank() == 0 {
					c.Recv(1, 0) // rank 1 never sends: deadlock
				}
				return nil
			}, WithScheduler(mode), WithDeadline(300*time.Millisecond))
			if err == nil {
				t.Fatal("expected deadline error, got nil")
			}
			if !strings.Contains(err.Error(), "deadline") {
				t.Errorf("error = %v, want mention of deadline", err)
			}
			if el := time.Since(start); el > 10*time.Second {
				t.Errorf("teardown took %v, want prompt unwind", el)
			}
		})
	}
}

// TestWorldStatePooling leaves unreceived messages behind in one run and
// verifies that subsequent runs of the same size, each on the skeleton
// the run before it kept, always start with clean mailboxes — the
// skeleton-recycling reset must drain everything a previous world
// queued.
func TestWorldStatePooling(t *testing.T) {
	rep, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				c.Isend(1, 5, []int64{int64(i)})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Stats[1].UnreceivedMsgs; got != 3 {
		t.Fatalf("rank 1 UnreceivedMsgs = %d, want 3", got)
	}
	for i := 0; i < 8; i++ {
		_, err := Run(2, func(c *Comm) error {
			if n := c.mbox().pendingUser(); n != 0 {
				return fmt.Errorf("rank %d starts with %d pending messages", c.Rank(), n)
			}
			// The cleanliness check must precede all traffic on every rank
			// (an early peer send is otherwise a legal pending message).
			c.Barrier()
			peer := 1 - c.Rank()
			c.Isend(peer, 0, []int64{int64(c.Rank())})
			got, _ := c.Recv(peer, 0)
			if got[0] != int64(peer) {
				return fmt.Errorf("rank %d: got %d", c.Rank(), got[0])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("recycled run %d: %v", i, err)
		}
	}
}

// TestBodyErrorPoisonsPeers: a rank body returning an error must poison
// the world so peers blocked on its traffic unwind promptly — even with
// no deadline set, an undeadlined Run must not hang. The root-cause error
// must outrank the "a peer rank failed" consequence unwinds.
func TestBodyErrorPoisonsPeers(t *testing.T) {
	for _, mode := range schedModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			start := time.Now()
			_, err := Run(8, func(c *Comm) error {
				if c.Rank() == 3 {
					return fmt.Errorf("injected failure")
				}
				if c.Rank() == 0 {
					c.Recv(3, 0) // never sent: unblocked only by the poison
				}
				return nil
			}, WithScheduler(mode))
			if err == nil {
				t.Fatal("expected error, got nil")
			}
			if !strings.Contains(err.Error(), "injected failure") {
				t.Errorf("first reported error = %v, want the injected root cause", err)
			}
			if el := time.Since(start); el > 10*time.Second {
				t.Errorf("teardown took %v, want prompt unwind", el)
			}
		})
	}
}

// TestTopoLargeWorldPath forces the large-world creation path (normally
// reserved for worlds above topoVerifyDenseLimit) at a small size and
// checks both a symmetric topology (must work, including a neighborhood
// collective over it) and an asymmetric one (must panic naming the pair,
// as small worlds do, rather than run into the deadline).
func TestTopoLargeWorldPath(t *testing.T) {
	defer func(old int) { topoVerifyDenseLimit = old }(topoVerifyDenseLimit)
	topoVerifyDenseLimit = 4

	const p = 8
	_, err := RunChecked(p, func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		topo := c.CreateGraphTopo([]int{(r + 1) % n, (r - 1 + n) % n})
		recv := topo.NeighborAlltoallInt64([]int64{int64(r), int64(r)}, 1)
		if recv[0] != int64((r+1)%n) || recv[1] != int64((r-1+n)%n) {
			return fmt.Errorf("rank %d: neighbor exchange %v", r, recv)
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatalf("symmetric large-world topology: %v", err)
	}

	// Asymmetric: rank 5 lists rank 2, but not vice versa.
	_, err = Run(p, func(c *Comm) error {
		var nbrs []int
		if c.Rank() == 5 {
			nbrs = []int{2}
		}
		c.CreateGraphTopo(nbrs)
		return nil
	}, WithDeadline(5*time.Second))
	if want := "asymmetric topology: rank 5 lists 2 but not vice versa"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("asymmetric large-world topology: err = %v, want %q", err, want)
	}
}

// TestLargeWorldSmoke is the 16K-rank scale gate from the issue: a full
// NSR-style ping ring plus a scalar reduction must complete in CI time
// with balanced ledgers and no leaked goroutines or parked tasks
// (RunChecked runs CheckGoroutines after the world tears down).
func TestLargeWorldSmoke(t *testing.T) {
	p := 16384
	if raceEnabled {
		p = 2048 // the detector makes 16K tasks an order of magnitude slower
	}
	if testing.Short() {
		p = 4096
	}
	rep, err := RunChecked(p, func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		next, prev := (r+1)%n, (r-1+n)%n
		var buf [1]int64
		c.Isend(next, 0, []int64{int64(r)})
		c.RecvInto(prev, 0, buf[:])
		if buf[0] != int64(prev) {
			return fmt.Errorf("rank %d: ring got %d, want %d", r, buf[0], prev)
		}
		if got := c.AllreduceScalarInt64(OpMax, int64(r)); got != int64(n-1) {
			return fmt.Errorf("rank %d: allreduce max = %d", r, got)
		}
		return nil
	}, WithDeadline(120*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != p {
		t.Errorf("Procs = %d, want %d", rep.Procs, p)
	}
	sends, recvs := countP2P(rep)
	if sends != int64(p) || recvs != int64(p) {
		t.Errorf("totals: sends=%d recvs=%d, want %d each", sends, recvs, p)
	}
}

// Pooled-mode variants of the steady-state allocation contracts: parking
// and unparking through the ticket pool must stay off the heap just as
// the legacy condvar path does.

func TestRoundTripZeroAllocPooled(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		sbuf := [3]int64{1, 2, 3}
		var rbuf [3]int64
		peer := 1 - c.Rank()
		roundTrip := func() {
			c.Isend(peer, 0, sbuf[:])
			c.RecvInto(peer, 0, rbuf[:])
		}
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
				t.Errorf("pooled 3-word round trip: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				roundTrip()
			}
		}
		return nil
	}, WithScheduler(SchedWorkers), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceScalarZeroAllocPooled(t *testing.T) {
	const runs = 100
	_, err := RunChecked(2, func(c *Comm) error {
		reduce := func() {
			if got := c.AllreduceScalarInt64(OpSum, int64(c.Rank()+1)); got != 3 {
				t.Errorf("pooled scalar allreduce = %d, want 3", got)
			}
		}
		for i := 0; i < 4; i++ {
			reduce()
		}
		if c.Rank() == 0 {
			if avg := testing.AllocsPerRun(runs, reduce); avg != 0 {
				t.Errorf("pooled AllreduceScalarInt64: %.2f allocs/op, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				reduce()
			}
		}
		return nil
	}, WithScheduler(SchedWorkers), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolBoundsRunning checks the pool's two promises at GOMAXPROCS 1,
// 2 and 4: no more goroutines execute steps at once than there are
// tickets, and no goroutine runs besides the ranks and Run's one waiter.
// Every step counts itself running for its whole call and yields the
// scheduler while counted; the body also covers a ring and an Iprobe poll
// loop long enough to reach yieldNow.
func TestPoolBoundsRunning(t *testing.T) {
	const p = 512
	for _, procs := range []int{1, 2, 4} {
		withMaxProcs(procs, func() {
			var stepping, peak, peakG atomic.Int64
			raise := func(m *atomic.Int64, v int64) {
				for old := m.Load(); v > old && !m.CompareAndSwap(old, v); old = m.Load() {
				}
			}
			baseline := runtime.NumGoroutine()
			_, err := RunChecked(p, func(c *Comm) error {
				r, n := c.Rank(), c.Size()
				var buf [1]int64
				c.Isend((r+1)%n, 0, []int64{int64(r)})
				c.RecvInto((r-1+n)%n, 0, buf[:])
				var stage int
				var sum int64
				c.Steps(func() bool {
					raise(&peak, stepping.Add(1))
					defer stepping.Add(-1)
					runtime.Gosched()
					for ; stage < 4; stage++ {
						if stage%2 == 0 {
							if !c.BarrierStep() {
								return false
							}
							if stage == 2 {
								// Every rank has started and none can end before
								// this one deposits below: goroutines are neither
								// created nor exiting, so the count is exact.
								raise(&peakG, int64(runtime.NumGoroutine()))
							}
							continue
						}
						v, ok := c.AllreduceScalarInt64Step(OpSum, 1)
						if !ok {
							return false
						}
						sum += v
					}
					return true
				})
				if sum != int64(2*n) {
					return fmt.Errorf("rank %d: allreduce sum = %d", r, sum)
				}
				// Even ranks poll for a message their odd partner sends only
				// after hearing from them, which they send only after
				// 2*pollYieldEvery misses: every poller yields at least twice.
				partner := r ^ 1
				if r%2 == 1 {
					c.RecvInto(partner, 2, buf[:])
					c.Isend(partner, 1, []int64{1})
					return nil
				}
				for misses := 0; ; misses++ {
					if ok, _ := c.Iprobe(partner, 1); ok {
						break
					}
					if misses == 2*pollYieldEvery {
						c.Isend(partner, 2, []int64{2})
					}
				}
				c.RecvInto(partner, 1, buf[:])
				return nil
			}, WithScheduler(SchedWorkers), WithDeadline(60*time.Second))
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if got, want := peak.Load(), int64(ticketCount(p)); got > want {
				t.Errorf("GOMAXPROCS=%d: %d steps ran at once, want <= %d tickets", procs, got, want)
			}
			if got, want := peakG.Load(), int64(baseline+p+1); got > want {
				t.Errorf("GOMAXPROCS=%d: %d goroutines during the run, want <= %d (baseline %d + %d ranks + Run's waiter)",
					procs, got, want, baseline, p)
			}
		})
	}
}

// TestCleanRunAfterFailure runs a world that fails — a body error, a
// panic or a blown deadline, each after leaving messages unreceived —
// and then a checked world of the same size under the same scheduler:
// it must complete with every mailbox empty at start and no goroutine
// left behind.
func TestCleanRunAfterFailure(t *testing.T) {
	const p = 300
	failures := []struct {
		name string
		fail func(c *Comm) error
		opts []Option
	}{
		{"error", func(c *Comm) error { return fmt.Errorf("injected failure") }, nil},
		{"panic", func(c *Comm) error { panic("injected panic") }, nil},
		{"deadline", func(c *Comm) error { c.Recv(1, 5); return nil }, []Option{WithDeadline(300 * time.Millisecond)}},
	}
	for _, mode := range schedModes {
		for _, f := range failures {
			mode, f := mode, f
			t.Run(mode.String()+"/"+f.name, func(t *testing.T) {
				_, err := Run(p, func(c *Comm) error {
					r, n := c.Rank(), c.Size()
					c.Isend((r+1)%n, 0, []int64{int64(r)})
					switch r {
					case 3:
						return f.fail(c)
					case 0:
						c.Recv(3, 5) // never sent: unblocked by the poison or the deadline
					}
					return nil
				}, append([]Option{WithScheduler(mode)}, f.opts...)...)
				if err == nil {
					t.Fatal("failing run returned nil error")
				}
				_, err = RunChecked(p, func(c *Comm) error {
					if n := c.mbox().pendingUser(); n != 0 {
						return fmt.Errorf("rank %d starts with %d pending messages", c.Rank(), n)
					}
					c.Barrier()
					r, n := c.Rank(), c.Size()
					var buf [1]int64
					c.Isend((r+1)%n, 0, []int64{int64(r)})
					c.RecvInto((r-1+n)%n, 0, buf[:])
					if got := c.AllreduceScalarInt64(OpSum, buf[0]); got != int64(n*(n-1)/2) {
						return fmt.Errorf("rank %d: allreduce = %d", r, got)
					}
					return nil
				}, WithScheduler(mode), WithDeadline(60*time.Second))
				if err != nil {
					t.Fatalf("run after %s: %v", f.name, err)
				}
			})
		}
	}
}

// TestTaskWakeSlot pins the wait primitive under park/unpark: a resume
// that runs before its block is banked in the task's one-slot channel,
// the block consumes it without sleeping, and a second resume with the
// slot still full panics naming the rank rather than blocking the
// resumer (or being lost) — as does reusing a task that holds one. After
// clean pooled runs, the second reusing the first's skeleton, no task
// holds a wakeup.
func TestTaskWakeSlot(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			v := recover()
			if v == nil {
				t.Fatalf("%s did not panic", what)
			}
			if msg := fmt.Sprint(v); !strings.Contains(msg, "rank 7") {
				t.Fatalf("%s panicked with %q, want it to name rank 7", what, msg)
			}
		}()
		f()
	}
	var tk task
	tk.initTask()
	tk.reset(7, 0, nil)
	tk.resume()
	if len(tk.wake) != 1 {
		t.Fatalf("resume before block: slot holds %d wakeups, want 1 banked", len(tk.wake))
	}
	tk.block() // returns at once: the banked wakeup is consumed
	if len(tk.wake) != 0 {
		t.Fatalf("block left %d wakeups in the slot", len(tk.wake))
	}
	tk.resume()
	mustPanic("second resume", tk.resume)
	mustPanic("reset with a banked wakeup", func() { tk.reset(7, 0, nil) })
	tk.block()

	const p = 512
	body := func(c *Comm) error {
		r, n := c.Rank(), c.Size()
		var buf [1]int64
		for k := 0; k < 4; k++ {
			c.Isend((r+1)%n, 0, []int64{int64(r)})
			c.RecvInto((r-1+n)%n, 0, buf[:])
		}
		var stage int
		var sum int64
		c.Steps(func() bool {
			for ; stage < 4; stage++ {
				if stage%2 == 0 {
					if !c.BarrierStep() {
						return false
					}
					continue
				}
				v, ok := c.AllreduceScalarInt64Step(OpSum, 1)
				if !ok {
					return false
				}
				sum += v
			}
			return true
		})
		if sum != int64(2*n) {
			return fmt.Errorf("rank %d: allreduce sum = %d", r, sum)
		}
		c.AllreduceScalarInt64(OpMax, int64(r))
		return nil
	}
	var hubs [2]*collHub
	for run := range hubs {
		if _, err := RunChecked(p, func(c *Comm) error {
			if c.Rank() == 0 {
				hubs[run] = c.w.hub
			}
			return body(c)
		}, WithScheduler(SchedWorkers), WithDeadline(60*time.Second)); err != nil {
			t.Fatalf("pooled run %d: %v", run, err)
		}
	}
	ws := idleWorld(p)
	if ws == nil || ws.hub != hubs[0] || ws.hub != hubs[1] {
		t.Fatalf("the idle %d-rank skeleton is not the one both runs used", p)
	}
	for r, pooled := range ws.tasks {
		if n := len(pooled.wake); n != 0 {
			t.Errorf("after clean pooled runs, rank %d's slot holds %d wakeups", r, n)
		}
	}
}
