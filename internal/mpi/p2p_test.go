package mpi

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
)

// runChecked and testRun run body under the standard test options:
// matrices tracked, 30-second deadlock watchdog. runChecked adds the
// post-run hygiene checks; testRun is for bodies that end with traffic
// intentionally in flight or expect failure.
func runChecked(p int, body func(c *Comm) error) (*Report, error) {
	return RunChecked(p, body, WithMatrices(), WithDeadline(30*time.Second))
}

func testRun(p int, body func(c *Comm) error) (*Report, error) {
	return Run(p, body, WithMatrices(), WithDeadline(30*time.Second))
}

func TestSendRecvBasic(t *testing.T) {
	rep, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, 7, []int64{1, 2, 3})
		} else {
			data, st := c.Recv(0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Count != 3 {
				t.Errorf("status = %+v, want src 0 tag 7 count 3", st)
			}
			if data[0] != 1 || data[1] != 2 || data[2] != 3 {
				t.Errorf("data = %v", data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats[0].SendCount != 1 || rep.Stats[0].SendBytes != 24 {
		t.Errorf("sender stats = %+v", rep.Stats[0])
	}
	if rep.Stats[1].RecvCount != 1 || rep.Stats[1].RecvBytes != 24 {
		t.Errorf("receiver stats = %+v", rep.Stats[1])
	}
	if err := CheckDrained(rep); err != nil {
		t.Error(err)
	}
}

func TestSendBufferReusable(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []int64{42}
			c.Isend(1, 0, buf)
			buf[0] = 99 // must not affect the in-flight message
		} else {
			data, _ := c.Recv(0, 0)
			if data[0] != 42 {
				t.Errorf("got %d, want 42 (send buffer not copied)", data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	_, err := runChecked(4, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Isend(0, 10+c.Rank(), []int64{int64(c.Rank())})
			return nil
		}
		seen := map[int64]bool{}
		for i := 0; i < 3; i++ {
			data, st := c.Recv(AnySource, AnyTag)
			if int64(st.Source) != data[0] {
				t.Errorf("source %d but payload %d", st.Source, data[0])
			}
			if st.Tag != 10+st.Source {
				t.Errorf("tag %d from %d", st.Tag, st.Source)
			}
			seen[data[0]] = true
		}
		if len(seen) != 3 {
			t.Errorf("saw %d distinct senders, want 3", len(seen))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertakingOrder(t *testing.T) {
	// Messages from one sender with one tag must arrive in send order.
	const k = 50
	_, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := int64(0); i < k; i++ {
				c.Isend(1, 3, []int64{i})
			}
			return nil
		}
		for i := int64(0); i < k; i++ {
			data, _ := c.Recv(0, 3)
			if data[0] != i {
				t.Errorf("message %d arrived out of order (got %d)", i, data[0])
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, 1, []int64{1})
			c.Isend(1, 2, []int64{2})
			return nil
		}
		// Receive tag 2 first even though tag 1 was sent earlier.
		d2, _ := c.Recv(0, 2)
		d1, _ := c.Recv(0, 1)
		if d2[0] != 2 || d1[0] != 1 {
			t.Errorf("tag-selective receive failed: %v %v", d2, d1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagBound: tags are stored in 32 bits, so the largest one a send
// accepts (MPI_TAG_UB) must round-trip intact, and the next one must be
// refused rather than alias a smaller tag.
func TestTagBound(t *testing.T) {
	_, err := runChecked(1, func(c *Comm) error {
		c.Isend(0, maxTag, []int64{7})
		if d, st := c.Recv(0, maxTag); st.Tag != maxTag || d[0] != 7 {
			t.Errorf("tag %d received as tag %d, payload %v", maxTag, st.Tag, d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = testRun(1, func(c *Comm) error {
		c.Isend(0, maxTag+1, []int64{7})
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "above the tag bound") {
		t.Fatalf("send with tag %d: err = %v, want the tag-bound panic", maxTag+1, err)
	}
}

func TestIprobe(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, 5, []int64{11, 22})
			return nil
		}
		// Wait for the message to land, then probe.
		st := c.Probe(0, AnyTag)
		if st.Tag != 5 || st.Count != 2 {
			t.Errorf("probe status %+v", st)
		}
		ok, st2 := c.Iprobe(AnySource, 5)
		if !ok || st2.Source != 0 {
			t.Errorf("iprobe: ok=%v st=%+v", ok, st2)
		}
		// Probe must not consume: message still receivable.
		data, _ := c.Recv(0, 5)
		if len(data) != 2 || data[0] != 11 {
			t.Errorf("after probes, recv got %v", data)
		}
		// Now the queue is empty.
		if ok, _ := c.Iprobe(AnySource, AnyTag); ok {
			t.Error("iprobe found a message after all were received")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSsendCharges(t *testing.T) {
	var tSync, tEager float64
	for _, sync := range []bool{false, true} {
		rep, err := runChecked(2, func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < 10; i++ {
					if sync {
						c.Ssend(1, 0, []int64{1})
					} else {
						c.Isend(1, 0, []int64{1})
					}
				}
			} else {
				for i := 0; i < 10; i++ {
					c.Recv(0, 0)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if sync {
			tSync = rep.MaxVirtualTime
		} else {
			tEager = rep.MaxVirtualTime
		}
	}
	if tSync <= tEager {
		t.Errorf("synchronous sends (%g) should model slower than eager (%g)", tSync, tEager)
	}
}

func TestVirtualTimeCausality(t *testing.T) {
	// A receiver that posts Recv "early" must still observe an arrival
	// time no earlier than the sender's send time plus latency.
	rep, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(1e6) // sender is busy for a long virtual while
			c.Isend(1, 0, []int64{1})
		} else {
			before := c.Now()
			c.Recv(0, 0)
			if c.Now() <= before {
				t.Error("receiver clock did not advance across a blocking recv")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultCostModel()
	wantMin := 1e6 * m.ComputePerUnit
	if rep.MaxVirtualTime < wantMin {
		t.Errorf("MaxVirtualTime = %g, want >= %g (receiver must wait for busy sender)", rep.MaxVirtualTime, wantMin)
	}
}

func TestMessageMatrix(t *testing.T) {
	rep, err := runChecked(3, func(c *Comm) error {
		next := (c.Rank() + 1) % 3
		c.Isend(next, 0, []int64{0, 0}) // 16 bytes
		c.Recv((c.Rank()+2)%3, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mm := rep.MsgMatrix()
	bm := rep.ByteMatrix()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			wantM, wantB := int64(0), int64(0)
			if j == (i+1)%3 {
				wantM, wantB = 1, 16
			}
			if mm[i][j] != wantM || bm[i][j] != wantB {
				t.Errorf("matrix[%d][%d] = (%d,%d), want (%d,%d)", i, j, mm[i][j], bm[i][j], wantM, wantB)
			}
		}
	}
}

func TestQueueHighWater(t *testing.T) {
	rep, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 4; i++ {
				c.Isend(1, 0, []int64{1, 2, 3, 4}) // 32 bytes each
			}
			c.Barrier()
		} else {
			c.Barrier() // let all four queue up before receiving
			for i := 0; i < 4; i++ {
				c.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw := rep.Stats[1].QueueHighWater; hw != 128 {
		t.Errorf("receiver queue high-water = %d, want 128", hw)
	}
	if hw := rep.Stats[0].QueueHighWater; hw != 0 {
		t.Errorf("sender queue high-water = %d, want 0", hw)
	}
}

func TestRankFailurePropagates(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("deliberate test failure")
		}
		c.Recv(0, 0) // would deadlock without poisoning
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from a panicking rank")
	}
}

func TestSelfSend(t *testing.T) {
	_, err := runChecked(1, func(c *Comm) error {
		c.Isend(0, 9, []int64{5})
		data, st := c.Recv(0, 9)
		if data[0] != 5 || st.Source != 0 {
			t.Errorf("self-send got %v %+v", data, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineWatchdogFires(t *testing.T) {
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 0) // never sent: deadlock
		}
		return nil
	}, WithDeadline(200*time.Millisecond))
	if err == nil {
		t.Fatal("expected a deadline error on a deadlocked run")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("error %q does not report the deadline", err)
	}
}

// TestDeadlineNoGoroutineLeak: a rank blocked forever in Recv must be
// unwound by the deadline teardown, not abandoned — a leaked rank
// goroutine would pin its mailbox and stack for the life of the
// process. Covers Recv, Probe and an internal (neighborhood) receive,
// which block in different loops.
func TestDeadlineNoGoroutineLeak(t *testing.T) {
	block := map[string]func(c *Comm){
		"recv":  func(c *Comm) { c.Recv(1, 0) },
		"probe": func(c *Comm) { c.Probe(1, 0) },
		"nbr": func(c *Comm) {
			topo := c.CreateGraphTopo([]int{1})
			topo.INeighborAlltoallvInt64([][]int64{{1}}).WaitInto(nil) // peer never sends
		},
	}
	for name, blocked := range block {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			_, err := Run(2, func(c *Comm) error {
				if c.Rank() == 0 {
					blocked(c) // rank 1 exits immediately: rank 0 blocks forever
				}
				return nil
			}, WithDeadline(100*time.Millisecond))
			if err == nil {
				t.Fatal("expected a deadline error")
			}
			if cerr := CheckGoroutines(baseline); cerr != nil {
				t.Fatalf("deadline teardown leaked the blocked rank: %v", cerr)
			}
		})
	}
}

// matchedRecvRun pre-queues traffic on two message contexts (the world's
// and a termination detector's private one, so every source has a ring
// on each context in one bucket), fences, and has every rank drain its
// mailbox through a rotation of wildcard, exact-tag and named-source polls —
// either with IprobeRecvInto (matched) or with Iprobe followed by RecvInto
// of the probed (source, tag). It returns the report and, per rank, what
// was received in what order, the poll-miss counter, and a sample of the
// next values of the rank's perturbation streams.
func matchedRecvRun(t *testing.T, matched bool, mode SchedMode, seed uint64, prof sched.Profile) (*Report, [][]int64) {
	t.Helper()
	const p, per = 6, 6
	out := make([][]int64, p)
	opts := []Option{WithScheduler(mode), WithEventTrace(1 << 12), WithDeadline(30 * time.Second)}
	if prof.Enabled() {
		opts = append(opts, WithPerturb(seed, prof))
	}
	rep, err := Run(p, func(c *Comm) error {
		me := c.Rank()
		sub := NewQuiesce(c).tok
		for k := 0; k < per; k++ {
			for d := 0; d < p; d++ {
				if d == me {
					continue
				}
				c.Isend(d, k%3, []int64{int64(me), int64(k), 7}[:1+k%3])
				if k%2 == 0 {
					sub.Isend(d, 5+k%4, []int64{int64(me), int64(k)})
				}
			}
		}
		c.Barrier() // every message of the run is queued from here on
		polls := []struct {
			c        *Comm
			src, tag int
		}{
			{c, AnySource, AnyTag},
			{c, AnySource, 1},
			{sub, (me + 2) % p, AnyTag},
			{sub, AnySource, AnyTag},
			{c, (me + 1) % p, AnyTag},
		}
		var buf [3]int64
		log := []int64{}
		for i, got := 0, 0; got < (p-1)*(per+per/2); i++ {
			pl := polls[i%len(polls)]
			var ok bool
			var st Status
			if matched {
				ok, st = pl.c.IprobeRecvInto(pl.src, pl.tag, buf[:])
			} else if ok, st = pl.c.Iprobe(pl.src, pl.tag); ok {
				_, st = pl.c.RecvInto(st.Source, st.Tag, buf[:])
			}
			if ok {
				got++
				log = append(log, int64(i%len(polls)), int64(st.Source), int64(st.Tag), int64(st.Count))
				log = append(log, buf[:st.Count]...)
			}
		}
		log = append(log, int64(c.ps.pollMisses))
		if pt := c.ps.pert; pt != nil {
			log = append(log, int64(pt.Pick(1<<20)), int64(math.Float64bits(pt.Latency(1))))
			for k := 0; k < 8; k++ {
				if pt.ForceMiss() {
					log = append(log, int64(k))
				}
			}
		}
		out[me] = log
		c.Barrier()
		return nil
	}, opts...)
	if err != nil {
		t.Fatalf("matched=%v %v %v: %v", matched, mode, prof, err)
	}
	return rep, out
}

// TestIprobeRecvIntoEquivalence: the matched probe-receive is Iprobe
// followed by RecvInto of what it probed in everything a run can observe —
// received messages and their order, event logs, final clocks, ledgers,
// poll-miss counting and the position of every perturbation stream —
// under both schedulers and every perturbation profile.
func TestIprobeRecvIntoEquivalence(t *testing.T) {
	for pi, prof := range perturbProfiles {
		for _, mode := range schedModes {
			seed := uint64(pi) + 7
			repA, outA := matchedRecvRun(t, true, mode, seed, prof)
			repB, outB := matchedRecvRun(t, false, mode, seed, prof)
			name := fmt.Sprintf("%v %v", prof, mode)
			if !reflect.DeepEqual(outA, outB) {
				t.Errorf("%s: received messages, poll misses or perturbation draws differ:\nmatched  %v\nseparate %v", name, outA, outB)
			}
			if !reflect.DeepEqual(repA.FinalTimes, repB.FinalTimes) {
				t.Errorf("%s: final clocks differ: %v vs %v", name, repA.FinalTimes, repB.FinalTimes)
			}
			for r := range repA.Stats {
				if !reflect.DeepEqual(repA.Stats[r], repB.Stats[r]) {
					t.Errorf("%s: rank %d ledgers differ:\nmatched  %+v\nseparate %+v", name, r, repA.Stats[r], repB.Stats[r])
				}
				evA, evB := flatEvents(repA.Events(r)), flatEvents(repB.Events(r))
				if len(evA) == 0 || repA.EventDrops(r) != 0 {
					t.Fatalf("%s: rank %d logged %d events, dropped %d", name, r, len(evA), repA.EventDrops(r))
				}
				if !reflect.DeepEqual(evA, evB) {
					t.Errorf("%s: rank %d event logs differ (%d vs %d events)", name, r, len(evA), len(evB))
				}
			}
		}
	}
}

// TestPeerBufBytesFoldedAtTeardown: Run charges the per-peer pool once
// per distinct destination a rank sent to, whatever the world size, from
// the source buckets its peers' mailboxes marked. Destinations repeat,
// include the sender itself and lie anywhere in the world; one rank sends
// nothing. The second run of each size reuses the first run's skeleton,
// buckets included, and sends along other pairs, so a mark a reset left
// standing would charge a peer this run never sent to.
func TestPeerBufBytesFoldedAtTeardown(t *testing.T) {
	dsts := func(run, r, p int) []int {
		if run == 0 {
			return []int{(r + 1) % p, (r + 1) % p, (r + 7) % p, r, (r + 1) % p, (r*31 + 5) % p}
		}
		if r == 0 {
			return nil
		}
		return []int{(r + p - 1) % p, (r + 2) % p, (r + 2) % p}
	}
	sizes := []int{8, 1025, 16384}
	if raceEnabled {
		sizes[2] = 2048 // the detector caps live goroutines at 8128
	}
	for _, p := range sizes {
		var hubs [2]*collHub
		for run := range hubs {
			rep, err := Run(p, func(c *Comm) error {
				if c.Rank() == 0 {
					hubs[run] = c.w.hub
				}
				for _, d := range dsts(run, c.Rank(), p) {
					c.Isend(d, 0, []int64{1})
				}
				return nil
			}, WithDeadline(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			for r, rs := range rep.Stats {
				peers := slices.Clone(dsts(run, r, p))
				slices.Sort(peers)
				if want := int64(len(slices.Compact(peers))) * EagerBufPerPeer; rs.PeerBufBytes != want {
					t.Fatalf("p=%d run %d rank %d: PeerBufBytes = %d, want %d (peers %v)", p, run, r, rs.PeerBufBytes, want, peers)
				}
			}
		}
		if hubs[0] != hubs[1] {
			t.Fatalf("p=%d: the second run did not reuse the first run's skeleton", p)
		}
	}
}
