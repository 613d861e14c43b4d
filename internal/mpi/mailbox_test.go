package mpi

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sched"
)

// White-box tests for the bucketed mailbox. The centrepiece is a
// differential against refStore, an obviously-correct flat-slice model of
// MPI matching, driven by testing/quick (TestMailboxModelDifferential) and
// by the fuzzer (FuzzMailboxModel) over one op-sequence encoding, with the
// wildcard-front heap's own invariant (checkHeap) asserted after every op.
// The remaining tests pin what the model does not express (DESIGN §7):
// perturbed wildcard selection, post-poison stability, the retention
// rule of reset, and the bucket list's shape.

// msg is a matched message as a test sees it: its envelope and a copy
// of its payload. Tests give every message a distinct payload, so equal
// values mean the same message.
type msg struct {
	src, tag     int
	mctx         int32
	arrive, sent float64
	data         []int64
}

// pushAt fabricates a user-level world message with an explicit virtual
// arrival time and pushes it, bypassing a Comm (payload = seq for
// identification).
func pushAt(mb *mailbox, src, tag int, arrive float64, seq int64) {
	mb.push(src, tag, 0, 0, arrive, []int64{seq})
}

// matchMsg is the locked match a probe or receive makes: the message
// matching (src, tag) in mctx, received through recvLocked when remove
// is set and copied out in place otherwise; nil on a miss.
func matchMsg(mb *mailbox, src, tag int, mctx int32, remove bool, now float64) *msg {
	return matchWith(mb, remove, func() found { return mb.match(src, tag, mctx, now) })
}

// matchWith is matchMsg with the locked match made by find.
func matchWith(mb *mailbox, remove bool, find func() found) *msg {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	f := find()
	if f.e == nil {
		return nil
	}
	data := slices.Clone(mb.payload(f.e))
	e := *f.e
	if remove {
		buf := make([]int64, e.n)
		e = mb.recvLocked(f, buf)
		if !slices.Equal(buf, data) {
			panic(fmt.Sprintf("recvLocked copied %v, the queued payload was %v", buf, data))
		}
	}
	return &msg{int(e.src), int(e.tag), e.mctx, e.arrive, e.sent, data}
}

// take dequeues the (src, tag) message in communicator 0.
func take(mb *mailbox, src, tag int) *msg { return matchMsg(mb, src, tag, 0, true, 0) }

// drainAll dequeues every user message via AnySource/AnyTag wildcards in
// match order.
func drainAll(mb *mailbox) []*msg {
	var out []*msg
	for {
		m := take(mb, AnySource, AnyTag)
		if m == nil {
			return out
		}
		out = append(out, m)
	}
}

// TestMailboxEarliestArrivalOutOfOrderEnqueue: goroutine scheduling
// pushes a late-stamped message physically before an early-stamped one,
// and the receiver must still see them in virtual-arrival order.
func TestMailboxEarliestArrivalOutOfOrderEnqueue(t *testing.T) {
	mb := new(mailbox)
	// Physical push order deliberately scrambles virtual arrivals across
	// two sources; per-source stamps stay monotone (senders' clocks are).
	pushAt(mb, 1, 7, 50, 0) // src 1: 50, 60
	pushAt(mb, 0, 7, 10, 1) // src 0: 10, 55
	pushAt(mb, 1, 7, 60, 2)
	pushAt(mb, 0, 7, 55, 3)

	wantArrive := []float64{10, 50, 55, 60}
	wantSrc := []int{0, 1, 0, 1}
	got := drainAll(mb)
	if len(got) != 4 {
		t.Fatalf("drained %d messages, want 4", len(got))
	}
	for i, m := range got {
		if m.arrive != wantArrive[i] || m.src != wantSrc[i] {
			t.Errorf("match %d: (src %d, arrive %g), want (src %d, arrive %g)",
				i, m.src, m.arrive, wantSrc[i], wantArrive[i])
		}
	}
}

// TestMailboxOrderProperty drives the mailbox with randomized interleaved
// pushes (per-source monotone stamps, as the runtime guarantees) and
// checks the two delivery invariants on the wildcard drain: globally
// nondecreasing (arrive, src) order, and per-source FIFO.
func TestMailboxOrderProperty(t *testing.T) {
	const nSrc = 4
	prop := func(deltas []uint8, srcs []uint8) bool {
		mb := new(mailbox)
		clock := [nSrc]float64{}
		count := [nSrc]int64{}
		n := min(len(deltas), len(srcs))
		for i := 0; i < n; i++ {
			s := int(srcs[i]) % nSrc
			clock[s] += float64(deltas[i]) // monotone per source (may tie)
			pushAt(mb, s, 3, clock[s], count[s])
			count[s]++
		}
		got := drainAll(mb)
		if len(got) != n {
			return false
		}
		var next [nSrc]int64
		for i, m := range got {
			if i > 0 {
				p := got[i-1]
				if m.arrive < p.arrive {
					return false // later match with earlier arrival
				}
			}
			if m.data[0] != next[m.src] {
				return false // per-source FIFO violated
			}
			next[m.src]++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// perturbProfiles enumerates every perturbation profile class (plus the
// all-on and all-off combinations) for the schedule-invariance property
// tests below.
var perturbProfiles = []sched.Profile{
	{},
	{Ties: true},
	{Jitter: 1},
	{Slowdown: 0.5},
	{ProbeMiss: 0.5},
	sched.Full,
}

// TestMailboxPerturbedOrderProperty is the satellite property test for
// perturbed schedules: under EVERY perturbation profile, wildcard
// (AnySource/AnyTag) draining must still deliver each source's messages
// in FIFO order and must lose nothing — permutation is only ever legal
// across sources. With jitter active per-source arrival stamps are no
// longer monotone (the push order is the sender's send order, which is
// what MPI's non-overtaking clause is about), so unlike the unperturbed
// property test this one asserts FIFO by sequence number only.
func TestMailboxPerturbedOrderProperty(t *testing.T) {
	const nSrc = 4
	for _, prof := range perturbProfiles {
		prof := prof
		t.Run(prof.String(), func(t *testing.T) {
			pt := sched.New(0xc0ffee, sched.Profile{Ties: prof.Ties}, 1)
			jit := sched.New(0xbeef, prof, nSrc)
			prop := func(deltas []uint8, srcs []uint8) bool {
				mb := new(mailbox)
				if pt != nil {
					mb.pert = pt.Rank(0)
				}
				clock := [nSrc]float64{}
				count := [nSrc]int64{}
				n := min(len(deltas), len(srcs))
				for i := 0; i < n; i++ {
					s := int(srcs[i]) % nSrc
					// The sender's clock advances monotonically; the stamped
					// latency is perturbed per profile, so with jitter the
					// arrival stamps within one source can reorder.
					clock[s] += float64(deltas[i])
					arrive := clock[s]
					if jit != nil {
						arrive = clock[s] + jit.Rank(s).Latency(1+float64(deltas[i]))
					}
					pushAt(mb, s, 3, arrive, count[s])
					count[s]++
				}
				got := drainAll(mb)
				if len(got) != n {
					return false
				}
				var next [nSrc]int64
				for _, m := range got {
					if m.data[0] != next[m.src] {
						return false // per-source FIFO violated
					}
					next[m.src]++
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMailboxPerturbedProbeRecvConsistency pins the Drain pattern under
// tie-permutation: whatever message a perturbed wildcard probe reports,
// the follow-up exact (src, tag) match must return that same message —
// a permuted pick is always its source's earliest message.
func TestMailboxPerturbedProbeRecvConsistency(t *testing.T) {
	pt := sched.New(42, sched.Profile{Ties: true}, 1)
	mb := new(mailbox)
	mb.pert = pt.Rank(0)
	seq := int64(0)
	for s := 0; s < 4; s++ {
		for k := 0; k < 3; k++ {
			pushAt(mb, s, 5+k, float64(10+k), seq) // equal stamps across sources: maximal tie sets
			seq++
		}
	}
	for i := 0; i < int(seq); i++ {
		probe := matchMsg(mb, AnySource, AnyTag, 0, false, 100)
		if probe == nil {
			t.Fatalf("probe %d found nothing with %d messages left", i, int(seq)-i)
		}
		got := matchMsg(mb, probe.src, probe.tag, 0, true, 100)
		if !reflect.DeepEqual(got, probe) {
			t.Fatalf("probe %d saw src %d tag %d but exact match returned a different message", i, probe.src, probe.tag)
		}
	}
}

// TestMailboxTiePermutationActuallyPermutes guards against the hooks
// silently becoming dead code: with several equal-stamp fronts and Ties
// enabled, different seeds must produce more than one wildcard
// selection order.
func TestMailboxTiePermutationActuallyPermutes(t *testing.T) {
	orders := map[string]bool{}
	for seed := uint64(0); seed < 16; seed++ {
		pt := sched.New(seed, sched.Profile{Ties: true}, 1)
		mb := new(mailbox)
		mb.pert = pt.Rank(0)
		for s := 0; s < 4; s++ {
			pushAt(mb, s, 1, 10, int64(s)) // all tied
		}
		order := ""
		for _, m := range drainAll(mb) {
			order += fmt.Sprint(m.src)
		}
		orders[order] = true
	}
	if len(orders) < 2 {
		t.Fatalf("16 seeds produced only the selection order(s) %v; tie permutation is inert", orders)
	}
}

// TestMailboxExactTagMatchesWildcardView: Iprobe(AnySource) reports a
// message's (src, tag); the follow-up exact Recv must find the same
// message. This is the transport Drain pattern.
func TestMailboxExactTagMatchesWildcardView(t *testing.T) {
	mb := new(mailbox)
	pushAt(mb, 2, 9, 30, 0)
	pushAt(mb, 1, 4, 40, 1)
	for i := 0; i < 2; i++ {
		probe := matchMsg(mb, AnySource, AnyTag, 0, false, 0)
		if probe == nil {
			t.Fatalf("probe %d found nothing", i)
		}
		if got := take(mb, probe.src, probe.tag); !reflect.DeepEqual(got, probe) {
			t.Fatalf("probe %d saw %+v but exact match returned %+v", i, probe, got)
		}
	}
}

// TestMailboxPoisonedPushNoOp: after poison, push must drop the message
// without touching the queues or the eager-buffer accounting, so the
// high-water snapshot a failed run reports is stable no matter how late
// the surviving senders race.
func TestMailboxPoisonedPushNoOp(t *testing.T) {
	mb := new(mailbox)
	pushAt(mb, 0, 1, 1, 0) // 8 bytes queued
	if hw := mb.highWater(); hw != 8 {
		t.Fatalf("high-water before poison = %d, want 8", hw)
	}
	mb.poison()
	pushAt(mb, 1, 1, 2, 1)
	pushAt(mb, 1, 1, 3, 2)
	if hw := mb.highWater(); hw != 8 {
		t.Errorf("high-water moved after poison: %d, want 8", hw)
	}
	if n := mb.pendingUser(); n != 1 {
		t.Errorf("pending after poisoned pushes = %d, want 1", n)
	}
	if m := take(mb, AnySource, AnyTag); m == nil || m.data[0] != 0 {
		t.Errorf("pre-poison message lost: %+v", m)
	}
}

// ringCaps lists the capacity of every ring of mb, in bucket order.
func ringCaps(mb *mailbox) []int {
	var caps []int
	for _, b := range mb.used {
		for i := range b.user {
			caps = append(caps, cap(b.user[i].q.buf))
		}
	}
	return caps
}

// retained is what the retention rule counts: ring and spill-slot
// capacity in bytes.
func retained(mb *mailbox) int64 {
	var n int64
	for _, c := range ringCaps(mb) {
		n += entryBytes * int64(c)
	}
	if mb.spill != nil {
		for _, p := range mb.spill.slots {
			n += 8 * int64(cap(p))
		}
	}
	return n
}

// spillSlots returns how many spill slots mb holds and how many of them
// are free.
func spillSlots(mb *mailbox) (slots, free int) {
	if mb.spill == nil {
		return 0, 0
	}
	return len(mb.spill.slots), len(mb.spill.free)
}

// checkReset asserts a reset mailbox's state: nothing queued, no source
// marked sent, every ring empty with the capacity want lists for it, and every spill slot
// free.
func checkReset(mb *mailbox, want []int) error {
	if n, q, hw := mb.pendingUser(), mb.queuedBytes(), mb.highWater(); n != 0 || q != 0 || hw != 0 || len(mb.active) != 0 {
		return fmt.Errorf("after reset: %d pending, %d bytes queued, high-water %d, %d heap entries", n, q, hw, len(mb.active))
	}
	if srcs := sentTo(mb); len(srcs) != 0 {
		return fmt.Errorf("after reset: sources %v still marked sent", srcs)
	}
	for _, b := range mb.used {
		for i := range b.user {
			if q := &b.user[i].q; q.n != 0 || q.head != 0 {
				return fmt.Errorf("after reset: src %d ring %d holds %d entries from head %d", b.src, i, q.n, q.head)
			}
		}
	}
	if got := ringCaps(mb); !slices.Equal(got, want) {
		return fmt.Errorf("ring capacities after reset %v, want %v", got, want)
	}
	if slots, free := spillSlots(mb); free != slots {
		return fmt.Errorf("after reset: %d of %d spill slots free", free, slots)
	}
	return nil
}

// TestMailboxRingTrimOnReset pins the retention rule: a reset keeps
// the ring and spill capacity a run grew, in bucket order, up to
// retainBytes a mailbox; a ring that would cross the bound is released,
// and the bound holds. A failed run's world is never reset, so its
// rings are never kept.
func TestMailboxRingTrimOnReset(t *testing.T) {
	t.Run("within bound", func(t *testing.T) {
		mb := new(mailbox)
		for i := 0; i < 300; i++ { // grows the ring to 512 entries
			pushAt(mb, 2, 1, float64(i), int64(i))
		}
		for i := 0; i < 10; i++ {
			mb.push(3, 1, 0, 0, 1, make([]int64, 100)) // spilled payloads
		}
		want := ringCaps(mb)
		if slots, _ := spillSlots(mb); want[0] != 512 || slots != 10 {
			t.Fatalf("ring capacities %v with %d spill slots, want [512 ...] and 10", want, slots)
		}
		before := retained(mb)
		mb.reset()
		if err := checkReset(mb, want); err != nil {
			t.Fatal(err)
		}
		if got := retained(mb); got != before {
			t.Errorf("kept %d bytes of the %d within the bound", got, before)
		}
		if got := drainAll(mb); len(got) != 0 {
			t.Errorf("drained %d messages after reset", len(got))
		}
	})
	t.Run("past bound", func(t *testing.T) {
		mb := new(mailbox)
		burst := int(2 * retainBytes / entryBytes) // one ring twice the bound
		for i := 0; i < burst; i++ {
			pushAt(mb, 1, 2, float64(i+1), int64(i))
		}
		for i := 0; i < 300; i++ {
			pushAt(mb, 2, 2, 1, int64(i))
		}
		for i := 0; i < 10; i++ {
			mb.push(3, 1, 0, 0, 1, make([]int64, 100))
		}
		caps := ringCaps(mb)
		if caps[0] < burst {
			t.Fatalf("burst ring capacity %d, want >= %d", caps[0], burst)
		}
		mb.reset()
		// Source 1's ring crosses the bound alone and goes; the rest fits.
		want := slices.Clone(caps)
		want[0] = 0
		if err := checkReset(mb, want); err != nil {
			t.Fatal(err)
		}
		if slots, _ := spillSlots(mb); slots != 10 {
			t.Errorf("kept %d of 10 spill slots", slots)
		}
		if got := retained(mb); got > retainBytes {
			t.Errorf("kept %d bytes, bound %d", got, retainBytes)
		}
		// The released ring regrows on demand.
		pushAt(mb, 1, 2, 5, 7)
		if m := take(mb, 1, 2); m == nil || m.data[0] != 7 {
			t.Errorf("push after reset: took %+v", m)
		}
	})
	t.Run("failed run", func(t *testing.T) {
		const p = 4
		releaseWorlds()
		_, err := Run(p, func(c *Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < 1000; i++ {
					c.Isend(1, 0, make([]int64, 2*inlineWords))
				}
				return fmt.Errorf("injected failure")
			}
			return nil
		}, WithDeadline(30*time.Second))
		if err == nil {
			t.Fatal("failing run returned nil error")
		}
		if ws := idleWorld(p); ws != nil {
			t.Fatalf("the failed run's %d-rank skeleton was kept", p)
		}
		// The next run of the size builds a skeleton without the failed
		// run's buckets, rings or slots.
		if _, err := Run(p, func(c *Comm) error { return nil }); err != nil {
			t.Fatal(err)
		}
		ws := idleWorld(p)
		if ws == nil {
			t.Fatal("clean run kept no skeleton")
		}
		if mb := ws.mailboxes[1]; len(mb.used) != 0 || mb.spill != nil {
			t.Errorf("rank 1's mailbox starts with %d buckets and spill store %v", len(mb.used), mb.spill)
		}
	})
}

// TestEntrySize pins the ring slot at 48 bytes: the footprint of a
// kept world and of every ring follows it.
func TestEntrySize(t *testing.T) {
	if entryBytes != 48 {
		t.Fatalf("entry is %d bytes, want 48", entryBytes)
	}
}

// refStore is the reference model the mailbox is checked against: a flat
// slice in push order, matched by linear scan. A user match considers
// each source's first entry that fits (comm, tag) — MPI's non-overtaking
// rule — and returns the earliest (arrive, src) among them.
type refStore struct {
	msgs       []*msg
	queued, hw int64
	sent       []int32 // sources that pushed, sorted: the peer set fold charges
}

func (r *refStore) push(m *msg) {
	if i, ok := slices.BinarySearch(r.sent, int32(m.src)); !ok {
		r.sent = slices.Insert(r.sent, i, int32(m.src))
	}
	r.msgs = append(r.msgs, m)
	r.queued += int64(8 * len(m.data))
	r.hw = max(r.hw, r.queued)
}

func (r *refStore) removeAt(i int) {
	r.queued -= int64(8 * len(r.msgs[i].data))
	r.msgs = slices.Delete(r.msgs, i, i+1)
}

func (r *refStore) matchUser(src, tag int, mctx int32, remove bool) *msg {
	best := -1
	seen := map[int]bool{}
	for i, m := range r.msgs {
		if m.mctx != mctx || seen[m.src] ||
			(src != AnySource && m.src != src) || (tag != AnyTag && m.tag != tag) {
			continue
		}
		seen[m.src] = true
		if best < 0 || m.arrive < r.msgs[best].arrive ||
			(m.arrive == r.msgs[best].arrive && m.src < r.msgs[best].src) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	m := r.msgs[best]
	if remove {
		r.removeAt(best)
	}
	return m
}

// probeTake is the matched probe-receive the slow way round: a probe of
// (src, tag), then the receive of the probed message's own (source, tag).
func (r *refStore) probeTake(src, tag int, mctx int32) *msg {
	if p := r.matchUser(src, tag, mctx, false); p != nil {
		return r.matchUser(p.src, p.tag, mctx, true)
	}
	return nil
}

func (r *refStore) pendingUser() int { return len(r.msgs) }

// pendingUser and highWater read, under the lock, the two owner-side
// figures fold books at the end of a run; sentTo lists the sources fold
// charges a peer pool to, in source order.
func (mb *mailbox) pendingUser() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	n := 0
	for h := range mb.active {
		n += mb.active[h].q().n
	}
	return n
}

func (mb *mailbox) highWater() int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.hw
}

func sentTo(mb *mailbox) []int32 {
	var srcs []int32
	for _, b := range mb.used {
		if b.sent {
			srcs = append(srcs, b.src)
		}
	}
	return srcs
}

// checkHeap asserts that mb.active is a min-heap by (front arrival,
// source) over exactly the non-empty user rings: one entry per such ring,
// its key the ring's current front.
func checkHeap(mb *mailbox) error {
	type ringID struct {
		b    *srcBucket
		ring int32
	}
	live := map[ringID]bool{}
	for _, b := range mb.used {
		for i := range b.user {
			if b.user[i].q.n > 0 {
				live[ringID{b, int32(i)}] = true
			}
		}
	}
	if len(mb.active) != len(live) {
		return fmt.Errorf("heap has %d entries for %d non-empty user rings", len(mb.active), len(live))
	}
	for h := range mb.active {
		e := &mb.active[h]
		if !live[ringID{e.b, e.ring}] {
			return fmt.Errorf("heap entry %d (src %d ring %d) is empty or listed twice", h, e.b.src, e.ring)
		}
		delete(live, ringID{e.b, e.ring})
		if u := &e.b.user[e.ring]; u.mctx != e.mctx || u.q.at(0).arrive != e.arrive {
			return fmt.Errorf("heap entry %d (src %d) keyed (comm %d, %g), ring front is (comm %d, %g)",
				h, e.b.src, e.mctx, e.arrive, u.mctx, u.q.at(0).arrive)
		}
		if p := (h - 1) / 2; h > 0 && e.before(&mb.active[p]) {
			return fmt.Errorf("heap entry %d (%g, src %d) is before its parent (%g, src %d)",
				h, e.arrive, e.b.src, mb.active[p].arrive, mb.active[p].b.src)
		}
	}
	return nil
}

// The op-sequence encoding shared by the quick differential, the fuzzer
// and the hand-written cases: four bytes per op {kind, source, selector,
// stamp}; trailing bytes are ignored. Sources are scattered over a
// 5000-rank id space (both edges included) so bucket insertion order is
// unrelated to source order. The stamp byte's low two bits advance the
// source's clock and the rest is latency jitter on top of it, so a
// source's stamps need not be monotone (sched's Jitter class): a ring's
// new front can be earlier than the one just taken.
const (
	opPushUser = iota
	opMatchUser
	opReset
	opProbeTake // the matched probe-receive: a removing match, checked against refStore.probeTake
	opKinds

	modelSrcs = 24 // source byte modelSrcs = AnySource (matches only)
	modelTags = 3  // tag selector modelTags = AnyTag (matches only)
)

func modelSrc(i int) int {
	if i == modelSrcs-1 {
		return 4999
	}
	return i * 1471 % 5000
}

// op encodes one op: a push (remove ignored) or match with tag selector
// tag in communicator comm. stamp(step, jitter) builds a push's last
// byte.
func op(kind, src, tag, comm int, remove bool, delta byte) []byte {
	sel := tag | comm<<2
	if remove {
		sel |= 1 << 3
	}
	return []byte{byte(kind), byte(src), byte(sel), delta}
}

func stamp(step, jitter int) byte { return byte(step | jitter<<2) }

// runMailboxModel decodes data into an op sequence and applies it to a
// mailbox and a refStore side by side (runMailboxScript), then resets
// the mailbox, checks that it kept every ring's capacity and freed
// every spill slot (the script stays far below retainBytes), and
// applies the sequence again to the kept mailbox against a fresh model.
func runMailboxModel(data []byte) error {
	mb := new(mailbox)
	for pass := 0; pass < 2; pass++ {
		if err := runMailboxScript(mb, data); err != nil {
			return fmt.Errorf("pass %d: %v", pass, err)
		}
		caps := ringCaps(mb)
		mb.reset()
		if err := checkReset(mb, caps); err != nil {
			return fmt.Errorf("pass %d: %v", pass, err)
		}
	}
	return nil
}

// runMailboxScript applies the op sequence data to mb and a fresh
// refStore and reports the first divergence: a different message from
// any match, or different pendingUser, queuedBytes or highWater after
// any op, a different set of sources marked as sent-to since the last
// reset, or a broken heap (checkHeap). Every pushed message is
// distinct (its sent stamp and first payload word are its op index) and
// payload lengths run past inlineWords, so spilled payloads are checked
// word for word. It ends by draining both through wildcards and
// checking the bucket list.
func runMailboxScript(mb *mailbox, data []byte) error {
	ref := new(refStore)
	var clock [modelSrcs]float64
	check := func(i int, what string, got, want *msg) error {
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("op %d (%s): mailbox matched %+v, model %+v", i, what, got, want)
		}
		if a, b := mb.pendingUser(), ref.pendingUser(); a != b {
			return fmt.Errorf("op %d (%s): pendingUser %d, model %d", i, what, a, b)
		}
		if a, b := mb.queuedBytes(), ref.queued; a != b {
			return fmt.Errorf("op %d (%s): queuedBytes %d, model %d", i, what, a, b)
		}
		if a, b := mb.highWater(), ref.hw; a != b {
			return fmt.Errorf("op %d (%s): highWater %d, model %d", i, what, a, b)
		}
		if a, b := sentTo(mb), ref.sent; !slices.Equal(a, b) {
			return fmt.Errorf("op %d (%s): sources marked sent %v, model %v", i, what, a, b)
		}
		if err := checkHeap(mb); err != nil {
			return fmt.Errorf("op %d (%s): %v", i, what, err)
		}
		return nil
	}
	matchUser := func(src, tag int, mctx int32, remove bool) (got, want *msg) {
		return matchMsg(mb, src, tag, mctx, remove, 0), ref.matchUser(src, tag, mctx, remove)
	}
	for i := 0; i+4 <= len(data); i += 4 {
		kind, sb, sel, delta := int(data[i])%opKinds, int(data[i+1]), int(data[i+2]), data[i+3]
		si := sb % modelSrcs
		mctx, remove := int32(sel>>2&1), sel>>3&1 == 1
		var got, want *msg
		switch kind {
		case opPushUser:
			// Small steps make cross-source ties common.
			clock[si] += float64(delta % 4)
			// Payload length varies past the inline capacity, so the byte
			// accounting and the spill slots are exercised.
			m := &msg{src: modelSrc(si), tag: sel % modelTags, mctx: mctx,
				arrive: clock[si] + float64(delta>>2%8), sent: float64(i), data: make([]int64, 1+i%(inlineWords+5))}
			for w := range m.data {
				m.data[w] = int64(i + w)
			}
			mb.push(m.src, m.tag, m.mctx, m.sent, m.arrive, m.data)
			ref.push(m)
		case opMatchUser, opProbeTake:
			src, tag := AnySource, AnyTag
			if s := sb % (modelSrcs + 1); s < modelSrcs {
				src = modelSrc(s)
			}
			if tg := sel % (modelTags + 1); tg < modelTags {
				tag = tg
			}
			if kind == opMatchUser {
				got, want = matchUser(src, tag, mctx, remove)
			} else {
				got, want = matchMsg(mb, src, tag, mctx, true, 0), ref.probeTake(src, tag, mctx)
			}
		case opReset:
			mb.reset() // drops what is queued; the mailbox is then reused
			*ref = refStore{}
			clock = [modelSrcs]float64{}
		}
		if err := check(i/4, fmt.Sprint(data[i:i+4]), got, want); err != nil {
			return err
		}
	}
	for mctx := int32(0); mctx < 2; mctx++ {
		for {
			got, want := matchUser(AnySource, AnyTag, mctx, true)
			if err := check(len(data)/4, "drain", got, want); err != nil {
				return err
			}
			if got == nil {
				break
			}
		}
	}
	if len(mb.active) != 0 || mb.pendingUser() != 0 {
		return fmt.Errorf("after drain: %d rings in the heap, %d pending", len(mb.active), mb.pendingUser())
	}
	if slots, free := spillSlots(mb); free != slots {
		return fmt.Errorf("after drain: %d of %d spill slots free", free, slots)
	}
	for i := 1; i < len(mb.used); i++ {
		if mb.used[i-1].src >= mb.used[i].src {
			return fmt.Errorf("used not sorted by source: %d before %d", mb.used[i-1].src, mb.used[i].src)
		}
	}
	return nil
}

// TestMailboxModelDifferential drives the mailbox and refStore with
// random 256-op sequences.
func TestMailboxModelDifferential(t *testing.T) {
	prop := func(data [1024]byte) bool {
		if err := runMailboxModel(data[:]); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mailboxModelCases are hand-written op sequences, run by go test as the
// fuzzer's seed corpus.
var mailboxModelCases = [][]byte{
	// Out-of-order enqueue across the two edge sources, an equal-stamp tie
	// (lower source wins), then a wildcard drain.
	slices.Concat(op(opPushUser, modelSrcs-1, 0, 0, false, 2), op(opPushUser, 0, 1, 0, false, 2),
		op(opPushUser, 0, 0, 0, false, 1), op(opMatchUser, modelSrcs, modelTags, 0, true, 0)),
	// A message taken through the wildcard must not answer a later exact
	// probe; the other tag from that source still does.
	slices.Concat(op(opPushUser, 3, 1, 0, false, 1), op(opPushUser, 3, 2, 0, false, 1),
		op(opMatchUser, modelSrcs, modelTags, 0, true, 0), op(opMatchUser, 3, 1, 0, false, 0),
		op(opMatchUser, 3, 2, 0, true, 0)),
	// Exact tag behind a same-source backlog, on two communicators.
	slices.Concat(op(opPushUser, 5, 0, 0, false, 1), op(opPushUser, 5, 0, 1, false, 1),
		op(opPushUser, 5, 1, 0, false, 1), op(opPushUser, 5, 2, 1, false, 1),
		op(opMatchUser, 5, 1, 0, true, 0), op(opMatchUser, 5, 2, 1, true, 0),
		op(opMatchUser, 5, modelTags, 0, true, 0)),
	// One source's tags received newest first by exact tag, with the
	// other communicator's traffic from the same source in between and a
	// miss on a drained tag.
	slices.Concat(op(opPushUser, 7, 0, 0, false, 1), op(opPushUser, 7, 1, 0, false, 1),
		op(opPushUser, 7, 0, 1, false, 1), op(opPushUser, 7, 2, 0, false, 1),
		op(opMatchUser, 7, 2, 0, true, 0), op(opMatchUser, 7, 1, 0, true, 0),
		op(opMatchUser, 7, 0, 0, true, 0), op(opMatchUser, 7, 2, 0, false, 0)),
	// Take-on-probe with another communicator's ring on top of the heap: the
	// wildcard for communicator 0 must walk past it, and taking source 9's
	// front re-keys that ring below source 4's.
	slices.Concat(op(opPushUser, 2, 0, 1, false, stamp(1, 0)), op(opPushUser, 9, 1, 0, false, stamp(2, 0)),
		op(opPushUser, 4, 0, 0, false, stamp(3, 0)), op(opPushUser, 9, 2, 0, false, stamp(3, 0)),
		op(opProbeTake, modelSrcs, modelTags, 0, false, 0), op(opProbeTake, modelSrcs, modelTags, 0, false, 0),
		op(opProbeTake, modelSrcs, modelTags, 1, false, 0), op(opProbeTake, modelSrcs, modelTags, 0, false, 0)),
	// Jittered stamps: source 6's second message is stamped before its
	// first, so once the first is taken from the bottom of the heap the
	// re-keyed ring has to sift up past both other sources; per-source FIFO
	// still holds the early stamp back until then.
	slices.Concat(op(opPushUser, 1, 0, 0, false, stamp(2, 0)), op(opPushUser, 3, 0, 0, false, stamp(3, 0)),
		op(opPushUser, 6, 0, 0, false, stamp(1, 7)), op(opPushUser, 6, 1, 0, false, stamp(0, 0)),
		op(opPushUser, 1, 1, 0, false, stamp(3, 0)),
		op(opProbeTake, modelSrcs, modelTags, 0, false, 0), op(opProbeTake, 6, modelTags, 0, false, 0),
		op(opProbeTake, modelSrcs, modelTags, 0, false, 0), op(opMatchUser, modelSrcs, modelTags, 0, true, 0)),
	// Reset with traffic queued, then reuse of the same buckets.
	slices.Concat(op(opPushUser, 2, 0, 0, false, 3), op(opPushUser, 2, 2, 1, false, 1),
		op(opReset, 0, 0, 0, false, 0), op(opPushUser, 2, 1, 0, false, 1),
		op(opMatchUser, 2, 0, 0, false, 0), op(opMatchUser, 2, 1, 0, true, 0)),
}

// FuzzMailboxModel feeds the differential arbitrary op sequences.
func FuzzMailboxModel(f *testing.F) {
	for _, c := range mailboxModelCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runMailboxModel(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMailboxManySources: buckets exist exactly for the sources that have
// sent, whatever the id (both edges of a 5000-rank space included) and
// whatever the order of first contact; the bucket list stays sorted; and
// an all-tied wildcard drain goes in ascending source order.
func TestMailboxManySources(t *testing.T) {
	mb := new(mailbox)
	for i := 0; i < modelSrcs; i++ {
		pushAt(mb, modelSrc(i), 7, 30, int64(i))
	}
	if len(mb.used) != modelSrcs {
		t.Fatalf("%d buckets for %d sources", len(mb.used), modelSrcs)
	}
	for i := 0; i < modelSrcs; i++ {
		if b := mb.peek(int32(modelSrc(i))); b == nil || int(b.src) != modelSrc(i) {
			t.Fatalf("bucket for src %d did not resolve: %+v", modelSrc(i), b)
		}
	}
	for _, silent := range []int32{1, 2500, 4998} {
		if mb.peek(silent) != nil {
			t.Errorf("phantom bucket for silent src %d", silent)
		}
	}
	got := drainAll(mb)
	if len(got) != modelSrcs {
		t.Fatalf("drained %d messages, want %d", len(got), modelSrcs)
	}
	for i, m := range got {
		if int32(m.src) != mb.used[i].src {
			t.Errorf("match %d from src %d, want %d (ascending sources)", i, m.src, mb.used[i].src)
		}
	}
}

// TestMailboxExactTagBehindBacklog: an exact-tag receive behind other
// tags from the same source removes from mid-ring and leaves the rest in
// order (across the ring's wrap point too); a drained tag then misses.
func TestMailboxExactTagBehindBacklog(t *testing.T) {
	mb := new(mailbox)
	match := func(tag int) *msg { return take(mb, 1, tag) }
	// Grow the ring to 8 slots and leave its head at 5, so the 6-message
	// backlog below wraps.
	for i := 0; i < 5; i++ {
		pushAt(mb, 1, 0, 0, -1)
	}
	for i := 0; i < 5; i++ {
		match(0)
	}
	tags := []int{5, 5, 9, 5, 6, 9}
	for i, tag := range tags {
		pushAt(mb, 1, tag, float64(i+1), int64(i))
	}
	for _, want := range []int64{2, 5} {
		m := match(9)
		if m == nil || m.data[0] != want {
			t.Fatalf("tag 9: got %+v, want seq %d", m, want)
		}
	}
	if m := match(9); m != nil {
		t.Fatalf("drained tag 9 matched seq %d", m.data[0])
	}
	for _, want := range []int64{0, 1, 3, 4} {
		m := match(AnyTag)
		if m == nil || m.data[0] != want {
			t.Fatalf("remaining order: got %+v, want seq %d", m, want)
		}
	}
	if n := mb.pendingUser(); n != 0 {
		t.Errorf("pending = %d, want 0", n)
	}
}

// pickAnySourceRef is perturbed wildcard selection as three passes over
// the heap array, the form pickAnySourceLocked's sorted candidate list
// replaced: the earliest candidate arrival, then the count k of
// candidates available by max(now, earliest), then the Pick(k)-th of
// them in (arrival, source) order, found by counting for each candidate
// the available ones before it. It is the reference FuzzMailboxTies
// checks the list against.
func (mb *mailbox) pickAnySourceRef(tag int, mctx int32, now float64) found {
	seen := false
	thr := 0.0
	for h := range mb.active {
		if f := mb.fit(h, tag, mctx); f.e != nil && (!seen || f.e.arrive < thr) {
			seen, thr = true, f.e.arrive
		}
	}
	if !seen {
		return found{}
	}
	thr = max(thr, now)
	k := 0
	for h := range mb.active {
		if f := mb.fit(h, tag, mctx); f.e != nil && f.e.arrive <= thr {
			k++
		}
	}
	pick := mb.pert.Pick(k)
	for h := range mb.active {
		f := mb.fit(h, tag, mctx)
		if f.e == nil || f.e.arrive > thr {
			continue
		}
		ord := 0
		for h2 := range mb.active {
			if g := mb.fit(h2, tag, mctx); g.e != nil && g.e.arrive <= thr && g.before(f) {
				ord++
			}
		}
		if ord == pick {
			return f
		}
	}
	panic("pickAnySourceRef: pick out of range")
}

// runTiesScript applies the op encoding of runMailboxScript to two
// mailboxes under Ties, each with its own perturbation stream drawn
// from seed: one matches wildcards through match (the sorted candidate
// list), the other through pickAnySourceRef. A match's stamp byte is
// the receiver's clock, so it sets how far the availability threshold
// reaches. Every match must take the same message from both, through
// a final wildcard drain, and the two streams must end at the same
// position.
func runTiesScript(seed uint64, data []byte) error {
	var mbs [2]*mailbox
	var streams [2]*sched.Rank
	for i := range mbs {
		mbs[i] = new(mailbox)
		streams[i] = sched.New(seed, sched.Profile{Ties: true}, 1).Rank(0)
		mbs[i].pert = streams[i]
	}
	match := func(src, tag int, mctx int32, remove bool, now float64) (got, want *msg) {
		got = matchMsg(mbs[0], src, tag, mctx, remove, now)
		want = matchWith(mbs[1], remove, func() found {
			if src == AnySource {
				return mbs[1].pickAnySourceRef(tag, mctx, now)
			}
			return mbs[1].match(src, tag, mctx, now)
		})
		return got, want
	}
	var clock [modelSrcs]float64
	for i := 0; i+4 <= len(data); i += 4 {
		kind, sb, sel, delta := int(data[i])%opKinds, int(data[i+1]), int(data[i+2]), data[i+3]
		si := sb % modelSrcs
		mctx, remove := int32(sel>>2&1), sel>>3&1 == 1
		switch kind {
		case opPushUser:
			clock[si] += float64(delta % 4)
			m := &msg{src: modelSrc(si), tag: sel % modelTags, mctx: mctx,
				arrive: clock[si] + float64(delta>>2%8), sent: float64(i), data: []int64{int64(i)}}
			for _, mb := range mbs {
				mb.push(m.src, m.tag, m.mctx, m.sent, m.arrive, m.data)
			}
		case opMatchUser, opProbeTake:
			src, tag := AnySource, AnyTag
			if s := sb % (modelSrcs + 1); s < modelSrcs {
				src = modelSrc(s)
			}
			if tg := sel % (modelTags + 1); tg < modelTags {
				tag = tg
			}
			got, want := match(src, tag, mctx, remove || kind == opProbeTake, float64(delta))
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("op %d %v: sorted list matched %+v, reference %+v", i/4, data[i:i+4], got, want)
			}
		case opReset:
			for j, mb := range mbs {
				mb.reset()
				mb.pert = streams[j]
			}
			clock = [modelSrcs]float64{}
		}
	}
	for mctx := int32(0); mctx < 2; mctx++ {
		for {
			got, want := match(AnySource, AnyTag, mctx, true, 0)
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("drain: sorted list matched %+v, reference %+v", got, want)
			}
			if got == nil {
				break
			}
		}
	}
	if a, b := streams[0].Pick(1<<30), streams[1].Pick(1<<30); a != b {
		return fmt.Errorf("perturbation streams diverged: next draws %d and %d", a, b)
	}
	return nil
}

// tiesCases are the fuzzer's seed corpus beyond mailboxModelCases: the
// all-tied fronts of TestMailboxTiePermutationActuallyPermutes and the
// equal stamps across sources and tags of
// TestMailboxPerturbedProbeRecvConsistency, taken by wildcard probes at
// a clock past every stamp and then at one before the latest.
var tiesCases = [][]byte{
	slices.Concat(op(opPushUser, 0, 1, 0, false, stamp(2, 0)), op(opPushUser, 1, 1, 0, false, stamp(2, 0)),
		op(opPushUser, 2, 1, 0, false, stamp(2, 0)), op(opPushUser, 3, 1, 0, false, stamp(2, 0)),
		op(opMatchUser, modelSrcs, modelTags, 0, true, 0), op(opMatchUser, modelSrcs, modelTags, 0, true, 0),
		op(opMatchUser, modelSrcs, modelTags, 0, true, 0), op(opMatchUser, modelSrcs, modelTags, 0, true, 0)),
	slices.Concat(op(opPushUser, 0, 0, 0, false, stamp(1, 0)), op(opPushUser, 0, 1, 0, false, stamp(1, 0)),
		op(opPushUser, 1, 0, 0, false, stamp(1, 0)), op(opPushUser, 1, 1, 0, false, stamp(1, 0)),
		op(opPushUser, 2, 2, 0, false, stamp(2, 1)), op(opPushUser, 3, 0, 0, false, stamp(3, 2)),
		op(opProbeTake, modelSrcs, modelTags, 0, false, 100), op(opProbeTake, modelSrcs, modelTags, 0, false, 2),
		op(opProbeTake, modelSrcs, 0, 0, false, 3), op(opProbeTake, modelSrcs, modelTags, 0, false, 1)),
}

// TestMailboxTiesDifferential runs the ties differential over random
// 256-op scripts and seeds.
func TestMailboxTiesDifferential(t *testing.T) {
	prop := func(seed uint64, data [1024]byte) bool {
		if err := runTiesScript(seed, data[:]); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMailboxTies feeds the ties differential arbitrary seeds and op
// sequences.
func FuzzMailboxTies(f *testing.F) {
	for i, c := range slices.Concat(mailboxModelCases, tiesCases) {
		f.Add(uint64(i), c)
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if err := runTiesScript(seed, data); err != nil {
			t.Fatal(err)
		}
	})
}
