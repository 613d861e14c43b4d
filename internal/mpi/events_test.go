package mpi

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// eventRun runs body with event tracing at the given ring capacity.
func eventRun(p, capacity int, body func(c *Comm) error) (*Report, error) {
	return Run(p, body, WithEventTrace(capacity), WithDeadline(30*time.Second))
}

// flatEvents copies a log view into one slice, for tests that compare
// whole logs.
func flatEvents(v EventLog) []Event {
	out := make([]Event, 0, v.Len())
	for _, c := range v.Chunks() {
		out = append(out, c...)
	}
	return out
}

// checkEventOrdering asserts the per-rank trace invariants: nonnegative
// spans, Start <= End, and completion (End) times nondecreasing in
// recorded order — the ring records events as they complete.
func checkEventOrdering(t *testing.T, rep *Report) {
	t.Helper()
	for rank := 0; rank < rep.Procs; rank++ {
		prev := 0.0
		for i, e := range flatEvents(rep.Events(rank)) {
			if e.Start < 0 || e.End < e.Start {
				t.Errorf("rank %d event %d (%v): span [%g, %g] invalid", rank, i, e.Kind, e.Start, e.End)
			}
			if e.End < prev {
				t.Errorf("rank %d event %d (%v): End %g before previous %g", rank, i, e.Kind, e.End, prev)
			}
			prev = e.End
		}
	}
}

func TestEventsDisabledByDefault(t *testing.T) {
	rep, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, 0, []int64{1})
		} else {
			c.Recv(0, 0)
		}
		return nil
	}, WithDeadline(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 2; rank++ {
		if ev := rep.Events(rank); ev.Len() != 0 || ev.Chunks() != nil {
			t.Errorf("rank %d has %d events without WithEventTrace", rank, ev.Len())
		}
		if d := rep.EventDrops(rank); d != 0 {
			t.Errorf("rank %d reports %d drops without WithEventTrace", rank, d)
		}
	}
}

// TestEventOrderingProperty drives an all-to-all exchange plus
// collectives at several rank counts and checks the trace invariants:
// per-rank nondecreasing completion times, and byte agreement between
// every matched send/recv pair.
func TestEventOrderingProperty(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		rep, err := eventRun(p, 4096, func(c *Comm) error {
			// Stagger compute so ranks hit the exchange at different
			// virtual times (forces genuine waits).
			c.Compute(float64(1000 * c.Rank()))
			for d := 0; d < p; d++ {
				if d != c.Rank() {
					// Payload size encodes the sender so byte matching is
					// nontrivial.
					c.Isend(d, 5, make([]int64, c.Rank()+1))
				}
			}
			for i := 0; i < p-1; i++ {
				c.Recv(AnySource, 5)
			}
			c.Barrier()
			c.AllreduceScalarInt64(OpSum, int64(c.Rank()))
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		checkEventOrdering(t, rep)

		// Matched pairs agree on bytes: for every ordered (sender,
		// receiver) pair the multiset of sent sizes equals the multiset
		// of received sizes.
		type pair struct{ s, r int32 }
		sent := map[pair][]int64{}
		recvd := map[pair][]int64{}
		var sends, recvs, colls int
		for rank := int32(0); rank < int32(p); rank++ {
			for _, e := range flatEvents(rep.Events(int(rank))) {
				switch e.Kind {
				case EvSend:
					sent[pair{rank, e.Peer}] = append(sent[pair{rank, e.Peer}], e.Bytes)
					sends++
				case EvRecv:
					recvd[pair{e.Peer, rank}] = append(recvd[pair{e.Peer, rank}], e.Bytes)
					recvs++
				case EvColl:
					colls++
				}
			}
			if d := rep.EventDrops(int(rank)); d != 0 {
				t.Errorf("p=%d rank %d dropped %d events with ample capacity", p, rank, d)
			}
		}
		if want := p * (p - 1); sends != want || recvs != want {
			t.Errorf("p=%d: %d sends / %d recvs traced, want %d each", p, sends, recvs, want)
		}
		if want := 2 * p; colls != want {
			t.Errorf("p=%d: %d collective events, want %d (barrier + allreduce per rank)", p, colls, want)
		}
		for pr, s := range sent {
			r := recvd[pr]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
			if fmt.Sprint(s) != fmt.Sprint(r) {
				t.Errorf("p=%d pair %v: sent bytes %v != received bytes %v", p, pr, s, r)
			}
		}
	}
}

// TestEventRingBounded checks the overflow contract: a full ring drops
// new events (the trace is a prefix of the run) and counts them.
func TestEventRingBounded(t *testing.T) {
	const capacity, msgs = 4, 20
	rep, err := eventRun(2, capacity, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Isend(1, 0, []int64{int64(i)})
			}
		} else {
			for i := 0; i < msgs; i++ {
				c.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEventOrdering(t, rep)
	for rank := 0; rank < 2; rank++ {
		n, d := rep.Events(rank).Len(), rep.EventDrops(rank)
		if n != capacity {
			t.Errorf("rank %d retained %d events, want ring capacity %d", rank, n, capacity)
		}
		if d <= 0 {
			t.Errorf("rank %d drop counter = %d, want > 0", rank, d)
		}
		if int64(n)+d < msgs {
			t.Errorf("rank %d: retained %d + dropped %d < %d primitives", rank, n, d, msgs)
		}
	}
}

// TestRMAAndNeighborhoodEvents checks the one-sided and neighborhood
// primitives land in the trace with their categories and byte counts.
func TestRMAAndNeighborhoodEvents(t *testing.T) {
	rep, err := eventRun(2, 256, func(c *Comm) error {
		win := c.WinCreate(64)
		if c.Rank() == 0 {
			win.Put(1, 0, []int64{1, 2, 3, 4}) // 32 bytes
		}
		win.FlushAll()
		c.Barrier()
		win.Free()

		topo := c.CreateGraphTopo([]int{1 - c.Rank()})
		topo.NeighborAlltoallvInt64([][]int64{{int64(c.Rank()), 7}}) // 16 bytes out
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkEventOrdering(t, rep)
	var put, flush, nbr *Event
	for _, e := range flatEvents(rep.Events(0)) {
		e := e
		switch e.Kind {
		case EvPut:
			put = &e
		case EvFlush:
			flush = &e
		case EvNbrColl:
			nbr = &e
		}
	}
	if put == nil || put.Bytes != 32 || put.Peer != 1 {
		t.Errorf("put event = %+v, want 32 bytes to peer 1", put)
	}
	if put != nil && put.Kind.Category() != "rma" {
		t.Errorf("put category = %q, want rma", put.Kind.Category())
	}
	if flush == nil || flush.Bytes != 32 {
		t.Errorf("flush event = %+v, want 32 drained bytes", flush)
	}
	if nbr == nil || nbr.Bytes != 16 {
		t.Errorf("neighborhood event = %+v, want 16 sent bytes", nbr)
	}
	if nbr != nil && nbr.Kind.Category() != "nbr" {
		t.Errorf("neighborhood category = %q, want nbr", nbr.Kind.Category())
	}
}

// recordAgainstFlat drives a chunked log of the given capacity beside an
// obviously-correct flat one — append everything, keep the first
// capacity — with n records from a random interleaving of the two
// recording entry points, seals it as a run's end does, and checks the
// view's Len, At and Chunks and the drop count against the reference.
func recordAgainstFlat(t *testing.T, r *rand.Rand, capacity, n int) bool {
	t.Helper()
	c := &Comm{ps: &procState{rs: &RankStats{}, ev: newEventLog(capacity)}}
	rep := &Report{Procs: 1, events: []*eventLog{c.ps.ev}}
	var flat []Event
	for i := 0; i < n; i++ {
		start := c.ps.now
		if r.Intn(3) == 0 {
			class, cause, causeT := WaitClass(r.Intn(int(numWaitClasses))), r.Intn(64), r.Float64()
			c.waitFor(start+1+r.Float64(), class, cause, causeT)
			flat = append(flat, Event{Kind: EvWait, Class: class, Peer: int32(cause), Tag: -1, Start: start, End: c.ps.now, CauseT: causeT})
		} else {
			kind, peer, tag, bytes := EventKind(r.Intn(int(numEventKinds))), r.Intn(64)-1, r.Intn(100)-1, r.Int63n(1<<20)
			c.ps.now += r.Float64()
			c.event(kind, peer, tag, bytes, start)
			flat = append(flat, Event{Kind: kind, Peer: int32(peer), Tag: int32(tag), Bytes: bytes, Start: start, End: c.ps.now})
		}
	}
	c.ps.ev.seal()

	kept := min(capacity, n)
	want := flat[:kept]
	v := rep.Events(0)
	if v.Len() != kept {
		t.Errorf("capacity %d, %d records: Len = %d, want %d", capacity, n, v.Len(), kept)
		return false
	}
	for i := range want {
		if *v.At(i) != want[i] {
			t.Errorf("capacity %d, %d records: At(%d) = %+v, want %+v", capacity, n, i, *v.At(i), want[i])
			return false
		}
	}
	chunks := v.Chunks()
	if len(chunks) != (kept+eventChunk-1)/eventChunk {
		t.Errorf("capacity %d, %d records: %d chunks for %d events", capacity, n, len(chunks), kept)
		return false
	}
	for i, ch := range chunks {
		if i < len(chunks)-1 && len(ch) != eventChunk || len(ch) == 0 {
			t.Errorf("capacity %d, %d records: chunk %d of %d holds %d events", capacity, n, i, len(chunks), len(ch))
			return false
		}
	}
	if kept > 0 && !reflect.DeepEqual(flatEvents(v), want) {
		t.Errorf("capacity %d, %d records: Chunks are not the first %d records in order", capacity, n, kept)
		return false
	}
	if d := rep.EventDrops(0); d != int64(n-kept) {
		t.Errorf("capacity %d, %d records: EventDrops = %d, want %d", capacity, n, d, n-kept)
		return false
	}
	return true
}

// TestEventLogMatchesFlatReference checks the chunked log and its view
// against the flat reference at the chunk boundaries, then at random
// capacities on every side of the chunk size.
func TestEventLogMatchesFlatReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, eventChunk - 1, eventChunk, eventChunk + 1, 3*eventChunk + 17} {
		recordAgainstFlat(t, r, 1<<14, n)
	}
	// A capacity that cuts the last chunk short, with drops after it.
	recordAgainstFlat(t, r, 3*eventChunk+17, 3*eventChunk+17+100)
	recordAgainstFlat(t, r, eventChunk+1, 2*eventChunk)

	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := []int{
			1,
			1 + r.Intn(eventChunk-1),              // below one chunk
			eventChunk,                            // exactly one
			eventChunk + 1 + r.Intn(eventChunk-1), // one and a part
			eventChunk * (2 + r.Intn(3)),          // several, whole
			eventChunk*(2+r.Intn(3)) + 1 + r.Intn(eventChunk-1), // several and a part
		}[r.Intn(6)]
		n := r.Intn(capacity + 2*eventChunk)
		if r.Intn(4) == 0 {
			n = r.Intn(capacity + 1) // never full
		}
		return recordAgainstFlat(t, r, capacity, n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestEventLogReadZeroAlloc: reading a multi-chunk log, by index and by
// chunk, copies nothing and allocates nothing.
func TestEventLogReadZeroAlloc(t *testing.T) {
	const polls = 3*eventChunk + 17
	rep, err := eventRun(2, 1<<14, func(c *Comm) error {
		for i := 0; i < polls; i++ {
			c.Iprobe(1-c.Rank(), 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var byIndex, byChunk int
	read := func() {
		byIndex, byChunk = 0, 0
		v := rep.Events(0)
		for i := 0; i < v.Len(); i++ {
			if e := v.At(i); e.Kind == EvProbe && e.Peer == -1 {
				byIndex++
			}
		}
		for _, events := range v.Chunks() {
			for i := range events {
				if e := &events[i]; e.Kind == EvProbe && e.Peer == -1 {
					byChunk++
				}
			}
		}
	}
	if avg := testing.AllocsPerRun(20, read); avg != 0 {
		t.Errorf("reading a %d-event log: %.2f allocs/op, want 0", polls, avg)
	}
	if byIndex != polls || byChunk != polls {
		t.Errorf("read %d probe misses by index and %d by chunk, want %d each", byIndex, byChunk, polls)
	}
	checkEventOrdering(t, rep)
}

// TestEventLayout pins the event's size and a chunk's: 48 B events make
// a 256-event chunk 12288 B, a runtime size class with no wasted tail.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 48 {
		t.Errorf("Event is %d bytes, want 48", got)
	}
	if got := eventChunk * unsafe.Sizeof(Event{}); got != 12288 {
		t.Errorf("an event chunk is %d bytes, want 12288", got)
	}
}

// TestTracedRunAllocatesWhatItRecords: the capacity is a cap, not a
// reservation. 32 ranks allowed 16K events each (29 MB of Event slots)
// record under a hundred apiece and must allocate about a chunk each.
func TestTracedRunAllocatesWhatItRecords(t *testing.T) {
	const p = 32
	body := func(c *Comm) error {
		for i := 0; i < 20; i++ {
			c.Isend((c.Rank()+1)%p, 0, []int64{int64(i)})
			c.Recv((c.Rank()+p-1)%p, 0)
		}
		c.Barrier()
		return nil
	}
	if _, err := eventRun(p, 1<<14, body); err != nil { // warm the world pool
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rep, err := eventRun(p, 1<<14, body)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < p; rank++ {
		if n := rep.Events(rank).Len(); n == 0 || n >= 100 {
			t.Fatalf("rank %d recorded %d events, want 1..99", rank, n)
		}
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Errorf("traced run allocated %d bytes, want < 1 MB", got)
	}
}

// TestTracedRoundTripZeroAlloc extends the steady-state allocation
// contract to tracing-enabled runs: recording into a claimed chunk and
// the saturated drop path are heap-free, and a log growing through many
// chunks allocates once per chunk claimed plus the doubling of its chunk
// index, nothing per event.
func TestTracedRoundTripZeroAlloc(t *testing.T) {
	// pingPong runs measure on rank 0 while rank 1 answers trips round
	// trips; the first 16 round trips on both are warm-up.
	pingPong := func(capacity, trips int, measure func(roundTrip func())) *Report {
		rep, err := eventRun(2, capacity, func(c *Comm) error {
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
				measure(roundTrip)
			} else {
				for i := 0; i < trips; i++ {
					roundTrip()
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	zeroAlloc := func(what string, runs int) func(func()) {
		return func(roundTrip func()) {
			if avg := testing.AllocsPerRun(runs, roundTrip); avg != 0 {
				t.Errorf("traced round trip, %s: %.2f allocs/op, want 0", what, avg)
			}
		}
	}

	// A round trip records at most three events (send, wait, recv), so
	// 16+51 of them stay inside the chunk the warm-up claimed...
	rep := pingPong(2*eventChunk, 51, zeroAlloc("inside a chunk", 50))
	if n := rep.Events(0).Len(); n > eventChunk || rep.EventDrops(0) != 0 {
		t.Errorf("in-chunk case recorded %d events with %d drops: it left its first chunk", n, rep.EventDrops(0))
	}
	// ...and the warm-up alone overfills a 32-event log.
	rep = pingPong(32, 101, zeroAlloc("log full", 100))
	if rep.EventDrops(0) < 100 {
		t.Errorf("saturated case dropped %d events, want every measured one", rep.EventDrops(0))
	}

	// Many chunks: what tracing adds to the same loop untraced (which is
	// heap-free per trip, not in total) is the chunks and their index.
	const trips = 8000
	mallocsOver := func(capacity int) (*Report, uint64) {
		var mallocs uint64
		rep := pingPong(capacity, trips, func(roundTrip func()) {
			// One processor, as AllocsPerRun measures.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < trips; i++ {
				roundTrip()
			}
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		})
		return rep, mallocs
	}
	_, untraced := mallocsOver(0)
	rep, traced := mallocsOver(1 << 16)
	chunks := 0
	for rank := 0; rank < 2; rank++ {
		if rep.EventDrops(rank) != 0 {
			t.Fatalf("rank %d dropped events below its capacity", rank)
		}
		chunks += len(rep.Events(rank).Chunks())
	}
	if chunks < 100 {
		t.Fatalf("only %d chunks claimed: not a many-chunk run", chunks)
	}
	// Mallocs is process-wide, so it counts both ranks' logs.
	if limit := untraced + uint64(chunks+2*bits.Len(uint(chunks))); traced > limit {
		t.Errorf("%d round trips over %d chunks: %d allocations against %d untraced, want at most %d (one per chunk and the index growth)",
			trips, chunks, traced, untraced, limit)
	}
}
