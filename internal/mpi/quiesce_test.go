package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sched"
)

// The adversarial perturbation menu the detector must survive: every
// single jitter class plus the everything-on profile, under a handful
// of pinned seeds. Latency jitter delays tokens relative to the app
// messages they chase; slowdown stretches whole ranks; ties permute
// AnySource selection; probe misses starve the nonblocking Idle path.
var quiescePerturbations = []struct {
	name string
	p    sched.Profile
}{
	{"none", sched.Profile{}},
	{"ties", sched.Profile{Ties: true}},
	{"jitter", sched.Profile{Jitter: 1.0}},
	{"slowdown", sched.Profile{Slowdown: 0.5}},
	{"probemiss", sched.Profile{ProbeMiss: 0.5}},
	{"full", sched.Full},
}

var quiesceSeeds = []uint64{0x5eed, 0xdead, 0x2a}

// quiesceLoop is the engine-style drive: drain and process application
// traffic (reacting to it), then hand the detector a chance, then park.
// handle is called for each received app message and returns any
// follow-up payloads to send as (dst, value) pairs — re-activation
// after idle is the norm, not the exception.
func quiesceLoop(c *Comm, q *Quiesce, handle func(src int, v int64) [][2]int64) (recvd int) {
	buf := make([]int64, 1)
	for {
		progressed := false
		for {
			ok, st := c.Iprobe(AnySource, AnyTag)
			if !ok {
				break
			}
			c.RecvInto(st.Source, st.Tag, buf)
			q.NoteRecv(1)
			recvd++
			progressed = true
			for _, out := range handle(st.Source, buf[0]) {
				q.NoteSend(1)
				c.Isend(int(out[0]), 0, []int64{out[1]})
			}
		}
		if progressed {
			continue
		}
		if q.Idle() {
			return recvd
		}
		q.Block()
	}
}

// TestQuiesceSingleRank: in a one-rank world quiescence is a local
// condition; the detector must conclude immediately once the deficit is
// balanced, with no token machinery.
func TestQuiesceSingleRank(t *testing.T) {
	_, err := RunChecked(1, func(c *Comm) error {
		q := NewQuiesce(c)
		q.NoteSend(1)
		c.Isend(0, 7, []int64{42})
		if q.Idle() {
			return errors.New("concluded with a self-addressed record in flight")
		}
		if v, _ := c.Recv(0, 7); v[0] != 42 {
			return fmt.Errorf("self-recv got %v", v)
		}
		q.NoteRecv(1)
		if !q.Idle() {
			return errors.New("balanced single rank did not conclude")
		}
		if q.detectedAt < 0 {
			return errors.New("no detection instant recorded")
		}
		if got := q.Quiesce(); got != q.detectedAt {
			return errors.New("Quiesce after conclusion changed the instant")
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceInFlightNotTermination is the central safety case: a rank
// that has gone idle after sending may look finished to a circulating
// token while its message is still in flight. The relay workload makes
// every hop exactly that scenario — sender idles immediately, receiver
// is reawakened — and the test asserts conclusion happened only after
// every sent record was received, under every perturbation class.
func TestQuiesceInFlightNotTermination(t *testing.T) {
	const procs, hops = 8, 200
	for _, pp := range quiescePerturbations {
		for _, seed := range quiesceSeeds {
			t.Run(fmt.Sprintf("%s/seed=%#x", pp.name, seed), func(t *testing.T) {
				_, err := RunChecked(procs, func(c *Comm) error {
					q := NewQuiesce(c)
					sent := 0
					// A deterministic pseudo-random relay: the ball carries its
					// remaining TTL; each receiver forwards it to a rank derived
					// from the TTL until it dies.
					handle := func(src int, ttl int64) [][2]int64 {
						if ttl == 0 {
							return nil
						}
						dst := (c.Rank() + 1 + int(ttl*2654435761)%(c.Size()-1)) % c.Size()
						sent++
						return [][2]int64{{int64(dst), ttl - 1}}
					}
					if c.Rank() == 0 {
						q.NoteSend(1)
						sent++
						c.Isend(1, 0, []int64{hops})
					}
					recvd := quiesceLoop(c, q, handle)
					// Safety observables at the instant this rank learned of
					// termination: globally every record sent was received, and
					// nothing is left queued for anyone.
					if ok, st := c.Iprobe(AnySource, AnyTag); ok {
						return fmt.Errorf("rank %d: app message from %d still queued after termination", c.Rank(), st.Source)
					}
					tot := c.AllreduceInt64(OpSum, []int64{int64(sent), int64(recvd)})
					if tot[0] != tot[1] {
						return fmt.Errorf("sent %d != received %d at termination", tot[0], tot[1])
					}
					if tot[0] != hops+1 {
						return fmt.Errorf("relay died early: %d records, want %d", tot[0], hops+1)
					}
					// Every rank must agree on the detection instant bit for bit
					// (it is carried in the TERM message).
					mx := c.AllreduceInt64(OpMax, []int64{int64(floatBits(q.detectedAt))})
					if uint64(mx[0]) != floatBits(q.detectedAt) {
						return fmt.Errorf("rank %d: detection instant disagrees with max", c.Rank())
					}
					return nil
				}, WithDeadline(60*time.Second), WithPerturb(seed, pp.p))
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestQuiesceReactivation: ranks alternate idle and active phases — a
// ping-pong where each side goes fully idle (token has every chance to
// sneak a circuit in) between reactions. The detector must wait out all
// rounds and only then conclude.
func TestQuiesceReactivation(t *testing.T) {
	const procs, rounds = 4, 50
	_, err := RunChecked(procs, func(c *Comm) error {
		q := NewQuiesce(c)
		handle := func(src int, v int64) [][2]int64 {
			if v == 0 {
				return nil
			}
			// bounce back with one less life
			return [][2]int64{{int64(src), v - 1}}
		}
		if c.Rank() == 0 {
			// one ping-pong stream per partner rank
			for dst := 1; dst < c.Size(); dst++ {
				q.NoteSend(1)
				c.Isend(dst, 0, []int64{rounds})
			}
		}
		recvd := quiesceLoop(c, q, handle)
		tot := c.AllreduceInt64(OpSum, []int64{int64(recvd)})
		if got := int64(procs-1) * (rounds + 1); tot[0] != got {
			return fmt.Errorf("total receives %d, want %d", tot[0], got)
		}
		return nil
	}, WithDeadline(60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuiesceDeterministicInstant: with a fully counted protocol driven
// through the blocking-only Quiesce path, the detection instant is a
// pure function of the virtual timeline. It must be bit-identical
// across scheduler modes and GOMAXPROCS settings.
func TestQuiesceDeterministicInstant(t *testing.T) {
	const procs = 6
	instant := func(mode SchedMode) float64 {
		var at float64
		_, err := RunChecked(procs, func(c *Comm) error {
			q := NewQuiesce(c)
			// Counted app phase: one ring message each, received with a
			// blocking exact-source Recv before entering detection.
			next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			q.NoteSend(1)
			c.Isend(next, 3, []int64{int64(c.Rank())})
			v, _ := c.Recv(prev, 3)
			if v[0] != int64(prev) {
				return fmt.Errorf("ring got %d from %d", v[0], prev)
			}
			q.NoteRecv(1)
			got := q.Quiesce()
			if got < 0 {
				return errors.New("Quiesce returned without an instant")
			}
			if c.Rank() == 0 {
				at = got
			}
			// All ranks observe the same instant bit for bit.
			mx := c.AllreduceInt64(OpMax, []int64{int64(floatBits(got))})
			if uint64(mx[0]) != floatBits(got) {
				return fmt.Errorf("rank %d: instant %v differs from max", c.Rank(), got)
			}
			return nil
		}, WithScheduler(mode), WithDeadline(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return at
	}

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	var ref float64
	first := true
	for _, mode := range []SchedMode{SchedDirect, SchedWorkers} {
		for _, gmp := range []int{1, 2, old} {
			runtime.GOMAXPROCS(gmp)
			got := instant(mode)
			if first {
				ref, first = got, false
				continue
			}
			if got != ref {
				t.Errorf("detection instant %v under %v/GOMAXPROCS=%d, want %v (bit-identical)", got, mode, gmp, ref)
			}
		}
	}
	runtime.GOMAXPROCS(old)
	if ref <= 0 {
		t.Fatalf("reference instant %v, want positive virtual time", ref)
	}
}

// TestDetectorContextIsolated: the application sends on the detector's
// own tag values (0 and 1) and receives with (AnySource, AnyTag) while a
// detector runs. Only the private context keeps the two apart: the app
// must receive nothing but its own records, and the detector must still
// conclude after the last of them.
func TestDetectorContextIsolated(t *testing.T) {
	const procs, ttl, magic = 6, 30, 0x5a5a
	for _, pp := range []struct {
		name string
		p    sched.Profile
	}{{"none", sched.Profile{}}, {"full", sched.Full}} {
		t.Run(pp.name, func(t *testing.T) {
			_, err := RunChecked(procs, func(c *Comm) error {
				r, n := c.Rank(), c.Size()
				q := NewQuiesce(c)
				// Every rank starts a ball; each hop forwards it on the tag
				// of its remaining life's parity until it dies.
				var buf [2]int64
				sent, recvd := 1, 0
				q.NoteSend(1)
				c.Isend((r+1)%n, ttl%2, []int64{magic, ttl})
				for {
					ok, st := c.IprobeRecvInto(AnySource, AnyTag, buf[:])
					if !ok {
						if q.Idle() {
							break
						}
						q.Block()
						continue
					}
					if st.Count != 2 || buf[0] != magic || st.Tag != int(buf[1]%2) {
						return fmt.Errorf("app wildcard received a foreign message: tag %d, %v", st.Tag, buf[:st.Count])
					}
					q.NoteRecv(1)
					recvd++
					if left := buf[1] - 1; left >= 0 {
						q.NoteSend(1)
						sent++
						c.Isend((r+1+int(left)%(n-1))%n, int(left%2), []int64{magic, left})
					}
				}
				tot := c.AllreduceInt64(OpSum, []int64{int64(sent), int64(recvd)})
				if want := int64(procs * (ttl + 1)); tot[0] != want || tot[1] != want {
					return fmt.Errorf("sent %d, received %d at termination, want %d each", tot[0], tot[1], want)
				}
				return nil
			}, WithDeadline(30*time.Second), WithPerturb(0x5eed, pp.p))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTwoLiveDetectors: two detectors live at once on one world each get
// their own context. The first watches an application ring, the second
// nothing; driven interleaved, neither consumes the other's token, the
// first concludes only after the ring is delivered, every rank agrees on
// each instant, and no detector message is left behind on either context.
func TestTwoLiveDetectors(t *testing.T) {
	for _, mode := range schedModes {
		t.Run(mode.String(), func(t *testing.T) {
			_, err := RunChecked(5, func(c *Comm) error {
				r, n := c.Rank(), c.Size()
				q1, q2 := NewQuiesce(c), NewQuiesce(c)
				if q1.tok.ctx == q2.tok.ctx || q1.tok.ctx == c.ctx || q2.tok.ctx == c.ctx {
					return fmt.Errorf("contexts not distinct: app %d, detectors %d and %d", c.ctx, q1.tok.ctx, q2.tok.ctx)
				}
				q1.NoteSend(1)
				c.Isend((r+1)%n, 0, []int64{int64(r)})
				var buf [1]int64
				recvd := 0
				for !q1.Done() || !q2.Done() {
					if ok, _ := c.IprobeRecvInto((r+n-1)%n, 0, buf[:]); ok {
						q1.NoteRecv(1)
						recvd++
					}
					q2.Idle()
					if q1.Idle() && recvd != 1 {
						return errors.New("first detector concluded before the ring arrived")
					}
				}
				c.Barrier() // every TERM relay is queued from here on
				for i, q := range []*Quiesce{q1, q2} {
					if ok, st := q.tok.Iprobe(AnySource, AnyTag); ok {
						return fmt.Errorf("detector %d left a tag-%d message from %d", i+1, st.Tag, st.Source)
					}
					mx := c.AllreduceInt64(OpMax, []int64{int64(floatBits(q.detectedAt))})
					if uint64(mx[0]) != floatBits(q.detectedAt) {
						return fmt.Errorf("detector %d instant disagrees with max", i+1)
					}
				}
				return nil
			}, WithScheduler(mode), WithDeadline(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestQuiesceTokenCostAccounted: detector traffic is real traffic — it
// must show up in the run's send statistics, not ride for free.
func TestQuiesceTokenCostAccounted(t *testing.T) {
	rep, err := RunChecked(4, func(c *Comm) error {
		q := NewQuiesce(c)
		quiesceLoop(c, q, func(int, int64) [][2]int64 { return nil })
		return nil
	}, WithMatrices(), WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var sends int64
	for _, rs := range rep.Stats {
		sends += rs.SendCount
	}
	// At least one full token circuit plus the TERM ring.
	if sends < 2*4-1 {
		t.Errorf("detector run recorded %d sends, want at least one circuit + TERM", sends)
	}
}
