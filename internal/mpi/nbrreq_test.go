package mpi

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPersistentNbrRoundTripAndReuse(t *testing.T) {
	const p = 5
	const rounds = 4
	_, err := runChecked(p, func(c *Comm) error {
		nbrs := ringNeighbors(c.Rank(), p)
		topo := c.CreateGraphTopo(nbrs)
		pn := topo.NeighborAlltoallvInit()
		send := make([][]int64, len(nbrs))
		var recv [][]int64
		for r := 0; r < rounds; r++ {
			for i, nb := range nbrs {
				// Variable volume per round: neighbor i gets r+1 words.
				send[i] = send[i][:0]
				for k := 0; k <= r; k++ {
					send[i] = append(send[i], int64(c.Rank()*1_000_000+nb*1000+r))
				}
			}
			pn.Start(send)
			recv = pn.WaitInto(recv)
			for i, nb := range nbrs {
				if len(recv[i]) != r+1 {
					t.Errorf("round %d rank %d from %d: %d words, want %d", r, c.Rank(), nb, len(recv[i]), r+1)
					continue
				}
				want := int64(nb*1_000_000 + c.Rank()*1000 + r)
				for _, g := range recv[i] {
					if g != want {
						t.Errorf("round %d rank %d from %d: got %d want %d", r, c.Rank(), nb, g, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPersistentNbrCheaperThanPerCall is the point of the API: N rounds
// over a persistent schedule must cost less virtual time than N
// independent NeighborAlltoallv calls, because each Start pays only the
// AlphaNbrStart doorbell instead of the full AlphaNbrCall setup.
func TestPersistentNbrCheaperThanPerCall(t *testing.T) {
	const p = 4
	const rounds = 20
	timeOf := func(persistent bool) float64 {
		rep, err := runChecked(p, func(c *Comm) error {
			topo := c.CreateGraphTopo(ringNeighbors(c.Rank(), p))
			send := make([][]int64, topo.Degree())
			for i := range send {
				send[i] = []int64{int64(c.Rank())}
			}
			if persistent {
				pn := topo.NeighborAlltoallvInit()
				var recv [][]int64
				for r := 0; r < rounds; r++ {
					pn.Start(send)
					recv = pn.WaitInto(recv)
				}
			} else {
				for r := 0; r < rounds; r++ {
					topo.NeighborAlltoallvInt64(send)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	if pt, ct := timeOf(true), timeOf(false); pt >= ct {
		t.Errorf("persistent %d-round loop (%g) should beat per-call loop (%g)", rounds, pt, ct)
	}
}

// TestNbrFormsEquivalent is the contract of the shared exchange halves:
// on a random symmetric topology with random per-round payload sizes,
// the blocking, nonblocking and persistent all-to-all-v deliver the same
// payloads, and — once a Start is priced like a call — leave every rank
// with the same clock bits, call count and per-neighbor byte ledger.
func TestNbrFormsEquivalent(t *testing.T) {
	cost := DefaultCostModel()
	cost.AlphaNbrStart = cost.AlphaNbrCall
	type outcome struct {
		Payload [][]int64 // per rank: every received word, in round then neighbor order
		Clock   []uint64  // per rank: final virtual clock bits
		Calls   []int64
		Bytes   [][]int64 // per rank: byte ledger row
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(7)
		rounds := 1 + rng.Intn(4)
		adj := make([][]int, p)
		for u := 0; u < p; u++ {
			for v := u + 1; v < p; v++ {
				if rng.Intn(2) == 0 {
					adj[u] = append(adj[u], v)
					adj[v] = append(adj[v], u)
				}
			}
		}
		for u := range adj { // buffer order is the caller's, not rank order
			rng.Shuffle(len(adj[u]), func(i, j int) { adj[u][i], adj[u][j] = adj[u][j], adj[u][i] })
		}
		// words[r][u][i] is how much rank u sends its i-th neighbor in round r.
		words := make([][][]int, rounds)
		for r := range words {
			words[r] = make([][]int, p)
			for u := range words[r] {
				for range adj[u] {
					words[r][u] = append(words[r][u], rng.Intn(40))
				}
			}
		}
		run := func(form string) outcome {
			out := outcome{Payload: make([][]int64, p), Clock: make([]uint64, p)}
			rep, err := RunChecked(p, func(c *Comm) error {
				topo := c.CreateGraphTopo(adj[c.Rank()])
				// Every form pays the persistent schedule's one-time
				// setup, so the clocks stay comparable bit for bit.
				pn := topo.NeighborAlltoallvInit()
				send := make([][]int64, topo.Degree())
				var recv [][]int64
				for r := 0; r < rounds; r++ {
					for i, nb := range adj[c.Rank()] {
						send[i] = send[i][:0]
						for k := 0; k < words[r][c.Rank()][i]; k++ {
							send[i] = append(send[i], int64(c.Rank()*1_000_000+nb*1000+r*40+k))
						}
					}
					switch form {
					case "blocking":
						recv = topo.NeighborAlltoallvInt64(send)
					case "nonblocking":
						recv = topo.INeighborAlltoallvInt64(send).WaitInto(recv)
					case "persistent":
						pn.Start(send)
						recv = pn.WaitInto(recv)
					}
					for _, data := range recv {
						out.Payload[c.Rank()] = append(out.Payload[c.Rank()], data...)
					}
				}
				out.Clock[c.Rank()] = math.Float64bits(c.Now())
				return nil
			}, WithMatrices(), WithCost(cost), WithDeadline(30*time.Second))
			if err != nil {
				t.Error(err)
				return outcome{}
			}
			for _, rs := range rep.Stats {
				out.Calls = append(out.Calls, rs.NbrCollCount)
				out.Bytes = append(out.Bytes, rs.ByteRow)
			}
			return out
		}
		want := run("blocking")
		for _, form := range []string{"nonblocking", "persistent"} {
			if got := run(form); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d (p=%d, %d rounds): %s differs from blocking", seed, p, rounds, form)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentNbrMisusePanics(t *testing.T) {
	expectPanic := func(substr string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("no panic, want %q", substr)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
				t.Errorf("panic %v, want substring %q", r, substr)
			}
		}()
		f()
	}
	_, err := runChecked(2, func(c *Comm) error {
		topo := c.CreateGraphTopo([]int{1 - c.Rank()})
		pn := topo.NeighborAlltoallvInit()
		send := [][]int64{{int64(c.Rank())}}
		if c.Rank() == 0 {
			expectPanic("WaitInto without a started round", func() { pn.WaitInto(nil) })
			expectPanic("len(send)", func() { pn.Start(nil) })
		}
		pn.Start(send)
		if c.Rank() == 0 {
			expectPanic("while a round is in flight", func() { pn.Start(send) })
		}
		pn.WaitInto(nil)
		req := topo.INeighborAlltoallvInt64(send)
		if c.Rank() == 0 {
			expectPanic("Start on a nonblocking request", func() { req.Start(send) })
		}
		req.WaitInto(nil)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
