package matching

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/gen"
)

// TestRunSharesOneIndex runs matching from several goroutines on one
// graph that has no index yet (run under -race): every run must produce
// the serial mates, and all must have read the same index.
func TestRunSharesOneIndex(t *testing.T) {
	g := gen.Social(3000, 8, 11)
	models := []Model{NSR, RMA, NCL, MBP, NCLI, NSRA, NCLC, NCL}
	mates := make([][]int32, len(models))
	index := make([]*int32, len(models))
	var wg sync.WaitGroup
	wg.Add(len(models))
	for i, m := range models {
		go func(i int, m Model) {
			defer wg.Done()
			res, err := Run(g, opts(4, m))
			if err != nil {
				t.Errorf("%v: %v", m, err)
				return
			}
			mates[i], index[i] = res.Mate, &g.KeyOrder()[0]
		}(i, m)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := Serial(g)
	for i, m := range models {
		if index[i] != index[0] {
			t.Errorf("%v read another index than %v", m, models[0])
		}
		for v := range want.Mate {
			if mates[i][v] != want.Mate[v] {
				t.Fatalf("%v: mate[%d] = %d, serial %d", m, v, mates[i][v], want.Mate[v])
			}
		}
	}
}

// TestWarmRunDoesNotSort pins the point of the graph-owned index: a Run
// on a graph that already has it allocates less than the index alone
// would (4 bytes an arc), so the sort cannot silently come back. The
// graph is dense and the world one rank, so that what a run does
// allocate — per-vertex state, two bits an arc, no per-cross-arc
// transport buffers — stays far below that.
func TestWarmRunDoesNotSort(t *testing.T) {
	g := gen.SBP(3000, 6, 120, 0.3, 5)
	if _, err := Run(g, opts(1, NSR)); err != nil { // builds the index
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(g, opts(1, NSR)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*g.NumArcs())
	t.Logf("warm run allocated %d bytes; 4 B/arc = %d", got, limit)
	if got >= limit {
		t.Errorf("warm run allocated %d bytes, not less than %d (4 B/arc): is the index rebuilt?", got, limit)
	}
}
