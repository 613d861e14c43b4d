package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sched"
)

// refTopo is the message-based neighborhood exchange the box carrier
// replaced, kept as the carrier's reference: every chunk is a
// point-to-point message on a private context, tagged with its call
// sequence, stamped at injection and received from the mailbox by
// (source, sequence), and the receiver's clock waits for its arrival.
// Creation is an id round (newID), then the adjacency allgather (small
// worlds) or a zero-latency handshake message per neighbor (large ones).
type refTopo struct {
	c         *Comm
	neighbors []int
	seq       int64
}

// refCtx is the reference's message context: no communicator uses it.
const refCtx = -1

// refHandshake is the handshake's tag, below every call sequence.
const refHandshake = -2

func newRefTopo(c *Comm, neighbors []int) *refTopo {
	r := &refTopo{c: c, neighbors: neighbors}
	c.newID()
	if c.w.n <= topoVerifyDenseLimit {
		mine := make([]int64, len(neighbors))
		for i, nb := range neighbors {
			mine[i] = int64(nb)
		}
		c.allgatherInt64(mine)
	} else {
		for _, nb := range neighbors {
			r.send(nb, refHandshake, []int64{int64(c.rank)}, 0)
		}
		for _, nb := range neighbors {
			r.recv(nb, refHandshake, nil)
		}
	}
	return r
}

func (r *refTopo) send(dst, tag int, data []int64, latency float64) {
	c := r.c
	c.w.mailboxes[dst].push(c.rank, tag, refCtx, c.ps.now, c.ps.now+c.perturbLatency(latency), data)
}

// recv receives the (src, tag) message of the reference's context,
// appends its payload to dst and returns the result.
func (r *refTopo) recv(src, tag int, dst []int64) []int64 {
	c := r.c
	mb, f := c.await("reference recv", func(mb *mailbox) found {
		return mb.match(src, tag, refCtx, c.ps.now)
	})
	dst = append(dst, mb.payload(f.e)...)
	e := *f.e
	mb.take(f)
	mb.mu.Unlock()
	c.waitFor(e.arrive, WaitNbrExchange, int(e.src), e.sent)
	return dst
}

func (r *refTopo) begin(callCost float64) int64 {
	seq := r.seq
	r.seq++
	r.c.ps.rs.NbrCollCount++
	r.c.chargeComm(callCost)
	return seq
}

func (r *refTopo) sendChunk(i int, seq int64, part []int64) int64 {
	c := r.c
	bytes := int64(8 * len(part))
	latency := c.w.cost.AlphaNbr + c.w.cost.BetaNbr*float64(bytes)
	c.chargeComm(latency)
	c.ps.rs.noteNbrChunk(r.neighbors[i], bytes)
	r.send(r.neighbors[i], int(seq), part, latency)
	return bytes
}

func (r *refTopo) post(callCost float64, send [][]int64) (seq, moved int64) {
	seq = r.begin(callCost)
	for i := range r.neighbors {
		moved += r.sendChunk(i, seq, send[i])
	}
	return seq, moved
}

func (r *refTopo) collect(seq int64, recv [][]int64) ([][]int64, int64) {
	if recv == nil {
		recv = make([][]int64, len(r.neighbors))
	}
	var got int64
	for i, nb := range r.neighbors {
		recv[i] = r.recv(nb, int(seq), recv[i][:0])
		got += int64(8 * len(recv[i]))
	}
	return recv, got
}

// nbrSide is one implementation of the four neighborhood forms, driven by
// the same script: the carrier under test or the reference.
type nbrSide interface {
	flat(send []int64, chunk int) []int64
	vector(send [][]int64) [][]int64
	start(send [][]int64) // queues a nonblocking request
	wait(k int) [][]int64 // completes the k-th queued request
	pstart(send [][]int64)
	pwait() [][]int64
}

type boxSide struct {
	t    *Topo
	pn   *NbrRequest
	reqs []*NbrRequest
	recv [][]int64
}

func (s *boxSide) flat(send []int64, chunk int) []int64 {
	return s.t.NeighborAlltoallInt64(send, chunk)
}
func (s *boxSide) vector(send [][]int64) [][]int64 {
	s.recv = s.t.NeighborAlltoallvInt64(send)
	return s.recv
}
func (s *boxSide) start(send [][]int64) {
	s.reqs = append(s.reqs, s.t.INeighborAlltoallvInt64(send))
}
func (s *boxSide) wait(k int) [][]int64 {
	req := s.reqs[k]
	s.reqs = append(s.reqs[:k], s.reqs[k+1:]...)
	s.recv = req.WaitInto(s.recv)
	return s.recv
}
func (s *boxSide) pstart(send [][]int64) { s.pn.Start(send) }
func (s *boxSide) pwait() [][]int64 {
	s.recv = s.pn.WaitInto(s.recv)
	return s.recv
}

type msgSide struct {
	r    *refTopo
	reqs []int64
	pseq int64
	recv [][]int64
}

func (s *msgSide) flat(send []int64, chunk int) []int64 {
	r, c := s.r, s.r.c
	recv := make([]int64, len(send))
	from := c.ps.now
	seq := r.begin(c.w.cost.AlphaNbrCall)
	var moved int64
	for i := range r.neighbors {
		moved += r.sendChunk(i, seq, send[i*chunk:(i+1)*chunk])
	}
	for i, nb := range r.neighbors {
		r.recv(nb, int(seq), recv[i*chunk:i*chunk:(i+1)*chunk])
	}
	c.event(EvNbrColl, -1, int(seq), moved, from)
	return recv
}
func (s *msgSide) vector(send [][]int64) [][]int64 {
	c := s.r.c
	from := c.ps.now
	seq, moved := s.r.post(c.w.cost.AlphaNbrCall, send)
	s.recv, _ = s.r.collect(seq, s.recv)
	c.event(EvNbrColl, -1, int(seq), moved, from)
	return s.recv
}
func (s *msgSide) startAt(callCost float64, send [][]int64) int64 {
	c := s.r.c
	from := c.ps.now
	seq, moved := s.r.post(callCost, send)
	c.event(EvNbrStart, -1, int(seq), moved, from)
	return seq
}
func (s *msgSide) waitFor(seq int64) [][]int64 {
	c := s.r.c
	from := c.ps.now
	var got int64
	s.recv, got = s.r.collect(seq, s.recv)
	c.event(EvNbrWait, -1, int(seq), got, from)
	return s.recv
}
func (s *msgSide) start(send [][]int64) {
	s.reqs = append(s.reqs, s.startAt(s.r.c.w.cost.AlphaNbrCall, send))
}
func (s *msgSide) wait(k int) [][]int64 {
	seq := s.reqs[k]
	s.reqs = append(s.reqs[:k], s.reqs[k+1:]...)
	return s.waitFor(seq)
}
func (s *msgSide) pstart(send [][]int64) { s.pseq = s.startAt(s.r.c.w.cost.AlphaNbrStart, send) }
func (s *msgSide) pwait() [][]int64      { return s.waitFor(s.pseq) }

// stepSide runs the carrier's step forms inside Comm.Steps: each op
// reports false where the blocking form would wait and is called again,
// with the same arguments, when the rank resumes.
type stepSide struct {
	boxSide
	flatRecv []int64
}

func (s *stepSide) flat(send []int64, chunk int) ([]int64, bool) {
	if s.flatRecv == nil {
		s.flatRecv = make([]int64, len(send))
	}
	if !s.t.NeighborAlltoallInt64Step(send, chunk, s.flatRecv) {
		return nil, false
	}
	recv := s.flatRecv
	s.flatRecv = nil
	return recv, true
}
func (s *stepSide) vector(send [][]int64) ([][]int64, bool) {
	return s.recv, s.t.NeighborAlltoallvInt64Step(send, s.recv)
}
func (s *stepSide) wait(k int) ([][]int64, bool) {
	if !s.reqs[k].WaitStep(s.recv) {
		return nil, false
	}
	s.reqs = append(s.reqs[:k], s.reqs[k+1:]...)
	return s.recv, true
}
func (s *stepSide) pwait() ([][]int64, bool) { return s.recv, s.pn.WaitStep(s.recv) }

// Script op kinds. Every rank runs the same script over its own
// neighbors.
const (
	nbrFlat = iota
	nbrVector
	nbrStart
	nbrWait
	nbrPStart
	nbrPWait
)

type nbrStep struct {
	kind  int
	chunk int     // nbrFlat: words per neighbor
	k     int     // nbrWait: which queued request
	words [][]int // vector sends: words[u][i] goes from rank u to its i-th neighbor
}

// nbrScript draws a random symmetric topology (neighbor order shuffled)
// and a random op sequence over it: every form, chunk sizes including
// 0, up to six nonblocking requests in flight and waited out of order,
// and a persistent schedule, all completed by the end.
func nbrScript(rng *rand.Rand) (adj [][]int, steps []nbrStep) {
	p := 2 + rng.Intn(7)
	adj = make([][]int, p)
	for u := 0; u < p; u++ {
		for v := u + 1; v < p; v++ {
			if rng.Intn(2) == 0 {
				adj[u] = append(adj[u], v)
				adj[v] = append(adj[v], u)
			}
		}
	}
	for u := range adj {
		rng.Shuffle(len(adj[u]), func(i, j int) { adj[u][i], adj[u][j] = adj[u][j], adj[u][i] })
	}
	words := func() [][]int {
		w := make([][]int, p)
		for u := range w {
			for range adj[u] {
				n := 0
				if rng.Intn(4) > 0 {
					n = rng.Intn(30)
				}
				w[u] = append(w[u], n)
			}
		}
		return w
	}
	queued, pinflight := 0, false
	for n := 4 + rng.Intn(16); len(steps) < n || queued > 0 || pinflight; {
		st := nbrStep{kind: rng.Intn(6)}
		switch st.kind {
		case nbrFlat:
			st.chunk = rng.Intn(4)
		case nbrVector:
			st.words = words()
		case nbrStart:
			if queued == 6 || len(steps) >= n {
				continue
			}
			st.words = words()
			queued++
		case nbrWait:
			if queued == 0 {
				continue
			}
			st.k = rng.Intn(queued)
			queued--
		case nbrPStart:
			if pinflight || len(steps) >= n {
				continue
			}
			st.words = words()
			pinflight = true
		case nbrPWait:
			if !pinflight {
				continue
			}
			pinflight = false
		}
		steps = append(steps, st)
	}
	return adj, steps
}

// The sides nbrScriptRun can drive.
const (
	sideBoxes     = "boxes"
	sideReference = "reference"
	sideSteps     = "steps"
)

// nbrScriptRun runs the script on one side and returns the report plus,
// per rank, every received word (with its op index and neighbor length)
// and the next value of its jitter stream.
func nbrScriptRun(t *testing.T, adj [][]int, steps []nbrStep, which string, mode SchedMode, seed uint64, prof sched.Profile) (*Report, [][]int64) {
	t.Helper()
	p := len(adj)
	out := make([][]int64, p)
	opts := []Option{WithScheduler(mode), WithMatrices(), WithEventTrace(1 << 12), WithDeadline(30 * time.Second)}
	if prof.Enabled() {
		opts = append(opts, WithPerturb(seed, prof))
	}
	rep, err := Run(p, func(c *Comm) error {
		me, nbrs := c.Rank(), adj[c.Rank()]
		var side nbrSide
		var stepped *stepSide
		switch which {
		case sideReference:
			r := newRefTopo(c, nbrs)
			c.chargeComm(c.w.cost.AlphaNbrCall) // NeighborAlltoallvInit's one-time charge
			side = &msgSide{r: r}
		case sideBoxes:
			topo := c.CreateGraphTopo(nbrs)
			side = &boxSide{t: topo, pn: topo.NeighborAlltoallvInit()}
		default:
			topo := c.CreateGraphTopo(nbrs)
			stepped = &stepSide{boxSide: boxSide{t: topo, pn: topo.NeighborAlltoallvInit(), recv: make([][]int64, len(nbrs))}}
		}
		log := []int64{}
		got := func(j int, recv [][]int64) {
			for _, data := range recv {
				log = append(log, int64(j), int64(len(data)))
				log = append(log, data...)
			}
		}
		vec := func(j int, st nbrStep) [][]int64 {
			send := make([][]int64, len(nbrs))
			for i, nb := range nbrs {
				for k := 0; k < st.words[me][i]; k++ {
					send[i] = append(send[i], int64(me*1_000_000+nb*10_000+j*100+k))
				}
			}
			return send
		}
		flat := func(j int, st nbrStep) []int64 {
			send := make([]int64, len(nbrs)*st.chunk)
			for i := range send {
				send[i] = int64(me*1_000_000 + j*100 + i)
			}
			return send
		}
		if stepped != nil {
			j := 0
			c.Steps(func() bool {
				for ; j < len(steps); j++ {
					st := steps[j]
					var recv [][]int64
					ok := true
					switch st.kind {
					case nbrFlat:
						var r []int64
						if r, ok = stepped.flat(flat(j, st), st.chunk); ok {
							recv = [][]int64{r}
						}
					case nbrVector:
						recv, ok = stepped.vector(vec(j, st))
					case nbrStart:
						stepped.start(vec(j, st))
					case nbrWait:
						recv, ok = stepped.wait(st.k)
					case nbrPStart:
						stepped.pstart(vec(j, st))
					case nbrPWait:
						recv, ok = stepped.pwait()
					}
					if !ok {
						return false
					}
					if recv != nil {
						got(j, recv)
					}
				}
				return true
			})
		} else {
			for j, st := range steps {
				switch st.kind {
				case nbrFlat:
					got(j, [][]int64{side.flat(flat(j, st), st.chunk)})
				case nbrVector:
					got(j, side.vector(vec(j, st)))
				case nbrStart:
					side.start(vec(j, st))
				case nbrWait:
					got(j, side.wait(st.k))
				case nbrPStart:
					side.pstart(vec(j, st))
				case nbrPWait:
					got(j, side.pwait())
				}
			}
		}
		if pt := c.ps.pert; pt != nil {
			log = append(log, int64(math.Float64bits(pt.Latency(1))))
		}
		out[me] = log
		return nil
	}, opts...)
	if err != nil {
		t.Fatalf("%s %v %v: %v", which, mode, prof, err)
	}
	return rep, out
}

// TestNbrCarrierMatchesReference drives random symmetric topologies
// through the box carrier — its blocking forms, and its step forms run
// as Comm.Steps — and the message-based reference, crossed with both
// creation paths, both schedulers and every perturbation profile: the
// payloads, clock bits, event logs, neighborhood call counts, byte rows
// and perturbation stream positions must be identical.
func TestNbrCarrierMatchesReference(t *testing.T) {
	defer func(old int) { topoVerifyDenseLimit = old }(topoVerifyDenseLimit)
	for seed := int64(1); seed <= 8; seed++ {
		adj, steps := nbrScript(rand.New(rand.NewSource(seed)))
		for _, limit := range []int{topoVerifyDenseLimit, 0} {
			topoVerifyDenseLimit = limit
			for pi, prof := range perturbProfiles {
				for _, mode := range schedModes {
					name := fmt.Sprintf("seed %d (p=%d, %d ops) limit %d %v %v", seed, len(adj), len(steps), limit, prof, mode)
					repB, outB := nbrScriptRun(t, adj, steps, sideReference, mode, uint64(pi)+3, prof)
					for _, which := range []string{sideBoxes, sideSteps} {
						repA, outA := nbrScriptRun(t, adj, steps, which, mode, uint64(pi)+3, prof)
						if !reflect.DeepEqual(outA, outB) {
							t.Fatalf("%s %s: payloads or stream positions differ:\n%s %v\nreference %v", name, which, which, outA, outB)
						}
						if !reflect.DeepEqual(repA.FinalTimes, repB.FinalTimes) {
							t.Fatalf("%s %s: final clocks differ: %v vs %v", name, which, repA.FinalTimes, repB.FinalTimes)
						}
						for r := range repA.Stats {
							a, b := repA.Stats[r], repB.Stats[r]
							if a.NbrCollCount != b.NbrCollCount || !reflect.DeepEqual(a.ByteRow, b.ByteRow) {
								t.Fatalf("%s %s: rank %d calls/bytes %d %v, reference %d %v", name, which, r, a.NbrCollCount, a.ByteRow, b.NbrCollCount, b.ByteRow)
							}
							if evA, evB := flatEvents(repA.Events(r)), flatEvents(repB.Events(r)); !reflect.DeepEqual(evA, evB) {
								t.Fatalf("%s %s: rank %d event logs differ:\n%s %v\nreference %v", name, which, r, which, evA, evB)
							}
						}
					}
				}
			}
		}
	}
}
