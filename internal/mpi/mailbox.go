package mpi

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/sched"
)

// This file implements the runtime's receive-side message store: MPI's
// unexpected-message queue for point-to-point traffic. Every rank owns
// one mailbox; senders push under the mailbox lock and the owning rank
// matches, probes and dequeues. Neighborhood-collective chunks never
// enter it: they wait in their sender's box until the receiver pulls
// them (topo.go), so everything queued here is a user-level message.
//
// Messages are bucketed by source. A bucket holds one FIFO ring per
// message context, in the order its single sender pushed it. A receive
// or probe names (source, tag): AnyTag is the front of that source's
// ring, an exact tag is the earliest entry carrying it. An exact tag
// behind a backlog of other tags from the same source walks the ring, as
// MPICH's unexpected queue does, and removing it shifts the entries
// ahead of it; no per-tag index exists to make that case O(1).
//
// Per-source FIFO delivery (MPI's non-overtaking guarantee) is
// structural: a match only ever takes a ring's earliest fitting entry.
// What the store does index is the wildcard front: every non-empty
// ring has one entry in mailbox.active, a binary min-heap keyed by the
// (virtual arrival, source) of the ring's front message, with the key
// held in the entry. The (AnySource, AnyTag) match every application
// receive in the repository starts with reads the top — O(1), plus
// O(log sources) to re-key the ring when the front is taken — and every
// other AnySource shape (an exact tag, a second context's ring on
// top, perturbed tie selection) walks the same array, one candidate per
// ring, and takes the same (arrival, source) minimum (see
// match).
//
// Buckets exist only for sources that have sent: a graph-topology rank
// hears from its process-graph neighbors, not from all P peers. The
// mailbox keeps them in a list sorted by source rank and finds one by
// binary search. Bucket structs are allocated in small chunks and never
// move, so the list and the heap hold *srcBucket safely. A zero mailbox
// is ready for use.
//
// Messages live by value in their rings: an entry is the envelope plus
// up to inlineWords of payload, and a longer payload sits in one of the
// mailbox's spill slots. push copies the payload in under the lock and
// every receive copies it out under the lock, so no message object
// outlives either call. A reset keeps the rings and slots a run grew, up
// to retainBytes a mailbox (see reset).

// inlineWords is the payload capacity of a ring entry. Two words cover
// the {x, y} records of the Send-Recv transports (the record's context
// rides in the tag) and the termination detector's control messages,
// which are nearly all of the runtime's point-to-point traffic; an
// aggregated batch spills. Each inline word costs 8 bytes in every ring
// slot a kept skeleton holds.
const inlineWords = 2

// minRingEnts is a ring's first capacity. Most rings of a large world
// never hold more than one message at a time (of the 95K rings a
// 4096-rank NSR matching of 4 vertices a rank keeps, 85K), and a kept
// skeleton holds every ring's capacity, so rings start at one entry.
const minRingEnts = 1

// bucketChunk is how many srcBucket structs are allocated at once when
// a mailbox needs a new bucket. Graph topologies have small in-degrees
// (2 for a ring, a few dozen for meshes and halos), so the chunk is kept
// tiny: a stranded unused struct costs as much as the allocation it
// saves.
const bucketChunk = 2

// retainBytes bounds the ring and spill-slot capacity a reset mailbox
// keeps for the next run on its skeleton. Under it a mailbox keeps what
// the run grew, so a repeated workload's steady state allocates no
// ring; a backlog spike past it is shed. The bound trades allocation
// for resident memory, since a kept ring stays live between runs
// (DESIGN §4c has the measurements it was chosen by).
const retainBytes = 320 << 10

// maxTag is the largest tag a send accepts (MPI's MPI_TAG_UB): tags are
// stored in 32 bits.
const maxTag = math.MaxInt32

// entry is one queued point-to-point message, held by value in its
// ring. A payload of more than inlineWords words lives in the mailbox's
// spill slot inline[0]. Entries hold no pointers, so the collector never
// scans a ring, and take 48 bytes.
type entry struct {
	arrive float64 // virtual arrival time at the receiver
	// sent is the sender's virtual clock at injection (arrive minus the
	// in-flight latency). Classified waits record it as the cause
	// timestamp, linking the receiver's blocked interval back to the
	// point on the sender's timeline that bounds it.
	sent   float64
	src    int32 // sender's rank
	tag    int32
	mctx   int32 // message context id
	n      int32 // payload words
	inline [inlineWords]int64
}

// entryBytes is the size of a ring slot.
const entryBytes = int64(unsafe.Sizeof(entry{}))

// bytes is the payload size the cost model and the eager-buffer
// accounting charge.
func (e *entry) bytes() int64 { return 8 * int64(e.n) }

// msgq is a FIFO ring of entries from one sender, in push order.
// Capacity is a power of two, grows by doubling and is kept across
// resets (within retainBytes), so steady-state operation does not
// allocate.
type msgq struct {
	buf  []entry
	head int // index of the front element (valid when n > 0)
	n    int // queued messages
}

// at returns the entry i places behind the front.
func (q *msgq) at(i int) *entry { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// push appends a slot at the back of the ring, growing the ring when
// it is full, and returns it for the caller to fill.
func (q *msgq) push() *entry {
	if q.n == len(q.buf) {
		grown := make([]entry, max(minRingEnts, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = *q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	e := q.at(q.n)
	q.n++
	return e
}

// first returns the earliest entry carrying tag (AnyTag: the front)
// and its distance from the front, or nil.
func (q *msgq) first(tag int) (*entry, int) {
	for i := 0; i < q.n; i++ {
		if e := q.at(i); tag == AnyTag || int(e.tag) == tag {
			return e, i
		}
	}
	return nil, 0
}

// remove dequeues the entry i places behind the front, closing the gap
// by shifting the i entries ahead of it; the order of the rest is kept.
// i is 0 for every receive in FIFO order.
func (q *msgq) remove(i int) {
	mask := len(q.buf) - 1
	for ; i > 0; i-- {
		q.buf[(q.head+i)&mask] = q.buf[(q.head+i-1)&mask]
	}
	q.head = (q.head + 1) & mask
	q.n--
}

// userq is one per-communicator FIFO: every user-level message from this
// bucket's source in communicator mctx.
type userq struct {
	mctx int32
	q    msgq
}

// srcBucket holds everything queued from one source rank. For a fixed
// communicator a source rank maps to exactly one sending goroutine, so
// each ring has a single producer. userq entries hold their rings by
// value and are only ever appended, so an index into user is stable;
// pointers into the slice are only ever used within one locked mailbox
// call, never across appends.
type srcBucket struct {
	user []userq // per-communicator FIFOs
	src  int32   // source rank this bucket indexes
	// sent marks a source that pushed during this run: the mailbox's
	// side of the sender's point-to-point peer set, which Run folds into
	// RankStats.PeerBufBytes (fold).
	sent bool
}

// ringFor returns the index in b.user of the FIFO for mctx, creating it
// if needed.
func (b *srcBucket) ringFor(mctx int32) int {
	for i := range b.user {
		if b.user[i].mctx == mctx {
			return i
		}
	}
	b.user = append(b.user, userq{mctx: mctx})
	return len(b.user) - 1
}

// front is one entry of mailbox.active: a non-empty user ring and its
// heap key, the virtual arrival of the ring's front message (ties go to
// the lower source rank, read through the bucket). The key is held in
// the entry so that a sift compares without chasing bucket -> ring ->
// message. 24 bytes, and no wider: at 16K ranks the per-rank heap
// follows the entry size.
type front struct {
	arrive float64
	b      *srcBucket
	mctx   int32
	ring   int32 // index of the ring in b.user
}

func (e *front) q() *msgq { return &e.b.user[e.ring].q }

// before orders entries by (front arrival, source rank).
func (e *front) before(f *front) bool {
	return e.arrive < f.arrive || (e.arrive == f.arrive && e.b.src < f.b.src)
}

// found is a matched user-level message and where it sits: e is i
// places behind the front of the ring of heap entry h. e points into
// the ring, so it is valid only while the mailbox lock is held and the
// ring unchanged. The zero value is "no match".
type found struct {
	e *entry
	h int
	i int
}

// before orders matches by (virtual arrival, source rank).
func (f found) before(g found) bool {
	return f.e.arrive < g.e.arrive || (f.e.arrive == g.e.arrive && f.e.src < g.e.src)
}

// mailbox is one rank's receive queue. Senders push under mu; the single
// owning rank matches and dequeues. The owner parks its task (not a
// condvar) when nothing matches; push unparks it, so a sender's wakeup
// is one CAS plus the owner's resume.
type mailbox struct {
	mu       sync.Mutex
	owner    *task
	used     []*srcBucket // every bucket of this mailbox, sorted by src
	active   []front      // min-heap of the non-empty user rings
	spare    []srcBucket  // unused remainder of the last bucket chunk
	spill    *spillStore  // nil until the first payload longer than inlineWords
	queued   int64        // bytes currently queued (eager-buffer occupancy)
	hw       int64        // high-water of queued
	parked   bool         // the owner's task is parked on this mailbox
	poisoned bool
	// cands is pickAnySourceLocked's scratch: the candidates of one
	// perturbed wildcard match, sorted by (arrival, source).
	cands []found
	// pert, when non-nil, permutes wildcard selection among concurrently
	// available ring fronts (sched Ties class). It is the owning rank's
	// stream: match runs only on the owner's goroutine, so no additional
	// synchronization is needed beyond mu.
	pert *sched.Rank
}

// find binary-searches used for src: its position, or where a bucket
// for it would be inserted. Hand-rolled because it runs on every push
// and named-source match: through slices.BinarySearchFunc's indirect
// comparator call world-16k ran slower in 8 of 8 paired runs.
func (mb *mailbox) find(src int32) (int, bool) {
	lo, hi := 0, len(mb.used)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if mb.used[mid].src < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(mb.used) && mb.used[lo].src == src
}

// peek returns the bucket for src without creating one, or nil.
func (mb *mailbox) peek(src int32) *srcBucket {
	if i, ok := mb.find(src); ok {
		return mb.used[i]
	}
	return nil
}

// bucket returns (creating if needed) the bucket for source src. New
// buckets come from a bucketChunk-sized allocation that is never
// reallocated, so the pointer is stable for the mailbox's life. Caller
// holds mb.mu.
func (mb *mailbox) bucket(src int32) *srcBucket {
	i, ok := mb.find(src)
	if ok {
		return mb.used[i]
	}
	if len(mb.spare) == 0 {
		mb.spare = make([]srcBucket, bucketChunk)
	}
	b := &mb.spare[0]
	mb.spare = mb.spare[1:]
	b.src = src
	mb.used = slices.Insert(mb.used, i, b)
	return b
}

// siftUp moves entry h toward the top until its parent is not after it.
func (mb *mailbox) siftUp(h int) {
	a := mb.active
	e := a[h]
	for h > 0 {
		p := (h - 1) / 2
		if !e.before(&a[p]) {
			break
		}
		a[h] = a[p]
		h = p
	}
	a[h] = e
}

// siftDown moves entry h toward the leaves until neither child is before
// it.
func (mb *mailbox) siftDown(h int) {
	a := mb.active
	e := a[h]
	for {
		c := 2*h + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1].before(&a[c]) {
			c++
		}
		if !a[c].before(&e) {
			break
		}
		a[h] = a[c]
		h = c
	}
	a[h] = e
}

// fix restores the heap order after entry h's key changed either way.
func (mb *mailbox) fix(h int) {
	if h > 0 && mb.active[h].before(&mb.active[(h-1)/2]) {
		mb.siftUp(h)
	} else {
		mb.siftDown(h)
	}
}

// push enqueues a message from src carrying a copy of data, and unparks
// the owner if it is parked. The caller may reuse data at once (MPI
// eager-buffering semantics). On a poisoned mailbox push is a no-op (the
// run is already failing and the owner may have unwound), so queued/hw
// stay frozen at their poison-time snapshot for the memory reports.
func (mb *mailbox) push(src, tag int, mctx int32, sent, arrive float64, data []int64) {
	mb.mu.Lock()
	if mb.poisoned {
		mb.mu.Unlock()
		return
	}
	b := mb.bucket(int32(src))
	b.sent = true
	ring := b.ringFor(mctx)
	q := &b.user[ring].q
	e := q.push()
	e.arrive, e.sent = arrive, sent
	e.src, e.tag, e.mctx, e.n = int32(src), int32(tag), mctx, int32(len(data))
	if len(data) <= inlineWords {
		copy(e.inline[:], data)
	} else {
		if mb.spill == nil {
			mb.spill = new(spillStore)
		}
		e.inline[0] = int64(mb.spill.put(data))
	}
	if q.n == 1 {
		mb.active = append(mb.active, front{arrive, b, mctx, int32(ring)})
		mb.siftUp(len(mb.active) - 1)
	}
	mb.queued += e.bytes()
	if mb.queued > mb.hw {
		mb.hw = mb.queued
	}
	wake := mb.parked
	mb.parked = false
	owner := mb.owner
	mb.mu.Unlock()
	if wake {
		owner.unpark()
	}
}

// spillStore holds a mailbox's payloads longer than inlineWords, one
// slot each, indexed by the entry's inline[0]. Slots keep their
// capacity when freed, so a steady stream of long payloads reuses them.
type spillStore struct {
	slots [][]int64
	free  []int32 // unused slots
}

// put copies data into a free slot, growing the slot or the slot list
// as needed, and returns the slot's index.
func (s *spillStore) put(data []int64) int32 {
	var k int32
	if n := len(s.free); n > 0 {
		k = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		k = int32(len(s.slots))
		s.slots = append(s.slots, nil)
	}
	s.slots[k] = append(s.slots[k][:0], data...)
	return k
}

// reset frees every slot and keeps, in slot order, those keep admits.
func (s *spillStore) reset(keep func(bytes int64) bool) {
	kept := s.slots[:0]
	for _, p := range s.slots {
		if keep(8 * int64(cap(p))) {
			kept = append(kept, p)
		}
	}
	clear(s.slots[len(kept):])
	s.slots = kept
	s.free = s.free[:0]
	for k := range kept {
		s.free = append(s.free, int32(k))
	}
}

// payload returns e's words: its inline array or its spill slot. The
// view is valid while the lock is held and e stays queued.
func (mb *mailbox) payload(e *entry) []int64 {
	if e.n <= inlineWords {
		return e.inline[:e.n]
	}
	return mb.spill.slots[e.inline[0]]
}

// parkLocked parks the owning task on the mailbox until the next push.
// The caller holds mb.mu with nothing matched; on return the lock is
// held again and the caller re-checks its predicate (wakeups may be
// spurious).
func (mb *mailbox) parkLocked(t *task) {
	mb.parked = true
	mb.mu.Unlock()
	t.park()
	mb.mu.Lock()
}

// take dequeues the user-level message f found, frees its spill slot
// and updates the byte accounting and the heap: a ring whose front went
// is re-keyed from its new front, or leaves the heap when that was its
// last message. The re-keyed entry may have to move either way — under
// latency jitter the stamps of one source are not monotone, so a new
// front can be earlier than the one it replaces.
func (mb *mailbox) take(f found) {
	mb.queued -= f.e.bytes()
	if f.e.n > inlineWords {
		mb.spill.free = append(mb.spill.free, int32(f.e.inline[0]))
	}
	e := &mb.active[f.h]
	q := e.q()
	q.remove(f.i)
	switch {
	case f.i > 0:
		// Taken from behind the front: the key stands.
	case q.n > 0:
		e.arrive = q.at(0).arrive
		mb.fix(f.h)
	default:
		last := len(mb.active) - 1
		mb.active[f.h] = mb.active[last]
		mb.active[last] = front{}
		mb.active = mb.active[:last]
		if f.h < last {
			mb.fix(f.h)
		}
	}
}

// recvLocked dequeues f's message and returns its entry, with the
// payload copied into buf if it fits; a payload longer than buf is not
// copied (the receive reports the truncation). The returned entry's
// inline words are not the payload when it was spilled. The caller
// holds mb.mu.
func (mb *mailbox) recvLocked(f found, buf []int64) entry {
	e := *f.e
	if p := mb.payload(f.e); len(p) <= len(buf) {
		copy(buf, p)
	}
	mb.take(f)
	return e
}

// fit returns the earliest entry of heap entry h's ring matching (tag,
// mctx): the candidate that ring contributes to a match.
func (mb *mailbox) fit(h, tag int, mctx int32) found {
	e := &mb.active[h]
	if e.mctx != mctx {
		return found{}
	}
	m, i := e.q().first(tag)
	return found{m, h, i}
}

// entryOf returns the heap index of the ring holding src's messages in
// communicator mctx, or -1 when nothing from src is queued there. A
// named source has no key to search the heap by, so this scans the
// array.
func (mb *mailbox) entryOf(src, mctx int32) int {
	if b := mb.peek(src); b != nil {
		for h := range mb.active {
			if e := &mb.active[h]; e.b == b && e.mctx == mctx {
				return h
			}
		}
	}
	return -1
}

// match finds the queued user-level message matching (src, tag) in
// communicator mctx with the earliest virtual arrival time; f.e is nil
// when nothing matches. The message stays queued: a receive copies it
// out and takes it before releasing the lock (recvLocked). now is the
// receiver's current virtual clock, consulted only when schedule
// perturbation is active. The caller holds mb.mu.
//
// Selecting by virtual arrival rather than physical enqueue position
// matters for timing fidelity: goroutine scheduling (especially on few
// cores) can enqueue a late-stamped message ahead of an early-stamped
// one, and processing the late one first would ratchet the receiver's
// clock and contaminate every subsequent reply with artificial delay.
// A source's candidate is the earliest entry of its ring that fits
// (tag, mctx), so messages from one source retain FIFO order, preserving
// MPI's non-overtaking guarantee, and an AnySource wildcard only has to
// compare one candidate per ring; ties across sources break toward the
// lower source rank. For (AnySource, AnyTag) the candidates are the ring
// fronts the heap is keyed by, so when the top belongs to mctx it is the
// answer; any other wildcard walks the array for the same minimum.
//
// Under perturbation (mb.pert with Ties), wildcard selection instead
// draws uniformly among every candidate that is concurrently available —
// arrival no later than max(now, earliest candidate arrival) — which is
// exactly the set a real MPI implementation could legally hand back
// first. Per-source FIFO holds as above, and a follow-up receive of the
// probed (source, tag) resolves to the same message.
func (mb *mailbox) match(src, tag int, mctx int32, now float64) found {
	var best found
	switch {
	case src != AnySource:
		if h := mb.entryOf(int32(src), mctx); h >= 0 {
			best = mb.fit(h, tag, mctx)
		}
	case mb.pert != nil && mb.pert.Ties():
		best = mb.pickAnySourceLocked(tag, mctx, now)
	case tag == AnyTag && len(mb.active) > 0 && mb.active[0].mctx == mctx:
		best = found{e: mb.active[0].q().at(0)}
	default:
		for h := range mb.active {
			if f := mb.fit(h, tag, mctx); f.e != nil && (best.e == nil || f.before(best)) {
				best = f
			}
		}
	}
	return best
}

// pickAnySourceLocked implements perturbed wildcard selection: among
// the per-ring candidates matching (tag, mctx), every one with virtual
// arrival <= max(now, earliest arrival) is concurrently available, and
// one is drawn uniformly from the owner rank's perturbation stream.
// The draw maps to candidates ordered by (arrive, src) — not by their
// position in mb.active, which depends on goroutine scheduling — so a
// seed replays the same choices given the same candidate sets. Sorted
// that way, the available candidates are a prefix of the list.
func (mb *mailbox) pickAnySourceLocked(tag int, mctx int32, now float64) found {
	c := mb.cands[:0]
	for h := range mb.active {
		f := mb.fit(h, tag, mctx)
		if f.e == nil {
			continue
		}
		i := len(c)
		c = append(c, f)
		for ; i > 0 && f.before(c[i-1]); i-- {
			c[i] = c[i-1]
		}
		c[i] = f
	}
	mb.cands = c
	if len(c) == 0 {
		return found{}
	}
	thr := max(now, c[0].e.arrive)
	k := 1
	for k < len(c) && c[k].e.arrive <= thr {
		k++
	}
	return c[mb.pert.Pick(k)]
}

// reset drains and reinitializes a mailbox for reuse by the next run on
// its skeleton. Queued messages (protocols like the Send-Recv matcher
// legally finish with stale traffic queued) are dropped. The buckets are
// kept, since a fresh world of the same size repeats the same
// neighborhoods and communicator ids, and so is the capacity the run
// grew, by one rule: rings in bucket order, then spill slots, each kept
// while the mailbox's total stays within retainBytes, the rest released.
// Only mailboxes from clean runs are reset — failed or poisoned runs
// discard the whole world state.
func (mb *mailbox) reset() {
	left := int64(retainBytes)
	keep := func(bytes int64) bool {
		if bytes > left {
			return false
		}
		left -= bytes
		return true
	}
	for _, b := range mb.used {
		b.sent = false
		for i := range b.user {
			q := &b.user[i].q
			q.head, q.n = 0, 0
			if !keep(entryBytes * int64(cap(q.buf))) {
				q.buf = nil
			}
		}
	}
	if mb.spill != nil {
		mb.spill.reset(keep)
	}
	clear(mb.active)
	mb.active = mb.active[:0]
	clear(mb.cands[:cap(mb.cands)])
	mb.cands = mb.cands[:0]
	mb.owner = nil
	mb.parked = false
	mb.poisoned = false
	mb.pert = nil
	mb.queued = 0
	mb.hw = 0
}

// fold books the run's end state into the ledgers in one locked pass:
// the queue high-water and the messages left queued into the owner's
// ledger own, and one EagerBufPerPeer into the ledger of every source
// that pushed this run. After poisoning the values are stable: push is
// a no-op on a poisoned mailbox, so a late sender racing a failed run
// cannot move them.
func (mb *mailbox) fold(own *RankStats, stats []*RankStats) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	own.QueueHighWater = mb.hw
	for h := range mb.active {
		own.UnreceivedMsgs += int64(mb.active[h].q().n)
	}
	for _, b := range mb.used {
		if b.sent {
			stats[b.src].PeerBufBytes += EagerBufPerPeer
		}
	}
}

func (mb *mailbox) poison() {
	mb.mu.Lock()
	mb.poisoned = true
	wake := mb.parked
	mb.parked = false
	owner := mb.owner
	mb.mu.Unlock()
	if wake && owner != nil {
		owner.unpark()
	}
}

// queuedBytes snapshots the current eager-buffer occupancy. Unlike hw it
// is a live value, sampled by the round-telemetry layer at round
// boundaries while senders are still pushing.
func (mb *mailbox) queuedBytes() int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.queued
}
