package mpi

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// releaseWorlds empties the idle set, so a test's runs build their
// skeletons afresh and a heap snapshot counts no skeleton an earlier
// test left idle.
func releaseWorlds() {
	idleMu.Lock()
	idleWorlds = nil
	idleMu.Unlock()
}

// idleWorld returns the idle skeleton of n ranks, or nil, and leaves it
// idle.
func idleWorld(n int) *worldState {
	idleMu.Lock()
	defer idleMu.Unlock()
	for _, ws := range idleWorlds {
		if ws.n == n {
			return ws
		}
	}
	return nil
}

// idleSizes returns the sizes in the idle set, least recently released
// first.
func idleSizes() []int {
	idleMu.Lock()
	defer idleMu.Unlock()
	sizes := make([]int, len(idleWorlds))
	for i, ws := range idleWorlds {
		sizes[i] = ws.n
	}
	return sizes
}

// runOnHub runs a small clean (or, with fail set, failing) world of n
// ranks and returns the collective hub it ran on, which identifies its
// skeleton.
func runOnHub(t *testing.T, n int, fail func(c *Comm) error, opts ...Option) *collHub {
	t.Helper()
	var hub *collHub
	_, err := Run(n, func(c *Comm) error {
		if c.Rank() == 0 {
			hub = c.w.hub
		}
		r := c.Rank()
		c.Isend((r+1)%n, 0, []int64{int64(r)})
		c.Recv((r+n-1)%n, 0)
		if fail != nil && r == n-1 {
			return fail(c)
		}
		if got := c.AllreduceScalarInt64(OpSum, 1); got != int64(n) {
			return fmt.Errorf("rank %d: allreduce = %d", r, got)
		}
		return nil
	}, append([]Option{WithDeadline(30 * time.Second)}, opts...)...)
	if (err != nil) != (fail != nil) {
		t.Fatalf("%d-rank run: error %v, want failure %v", n, err, fail != nil)
	}
	return hub
}

// TestWorldsKeptByRule pins the idle set's rule: one skeleton per size,
// at most maxIdleWorlds sizes, the least recently released evicted
// first, and only clean runs released.
func TestWorldsKeptByRule(t *testing.T) {
	releaseWorlds()
	defer releaseWorlds()

	t.Run("alternating sizes reuse their skeletons", func(t *testing.T) {
		releaseWorlds()
		kept := map[int]*worldState{}
		for i, n := range []int{3, 5, 3, 5, 3, 5} {
			runtime.GC()
			runtime.GC()
			hub := runOnHub(t, n, nil)
			ws := idleWorld(n)
			if ws == nil || ws.hub != hub {
				t.Fatalf("run %d (%d ranks): its skeleton was not kept", i, n)
			}
			if prev := kept[n]; prev != nil && prev != ws {
				t.Fatalf("run %d (%d ranks) built a new skeleton instead of reusing the idle one", i, n)
			}
			kept[n] = ws
		}
		if got := idleSizes(); !slices.Equal(got, []int{3, 5}) {
			t.Fatalf("idle sizes %v, want [3 5]", got)
		}
	})

	t.Run("failed runs are never kept", func(t *testing.T) {
		for _, f := range []struct {
			name string
			fail func(c *Comm) error
			opts []Option
		}{
			{"error", func(c *Comm) error { return fmt.Errorf("injected failure") }, nil},
			{"panic", func(c *Comm) error { panic("injected panic") }, nil},
			{"deadline", func(c *Comm) error { c.Recv(0, 5); return nil }, []Option{WithDeadline(200 * time.Millisecond)}},
		} {
			releaseWorlds()
			const n = 6
			clean := runOnHub(t, n, nil)
			failed := runOnHub(t, n, f.fail, f.opts...)
			if failed != clean {
				t.Fatalf("%s: the failing run did not take the idle skeleton", f.name)
			}
			if got := idleSizes(); len(got) != 0 {
				t.Fatalf("%s: idle sizes %v after the failed run, want none", f.name, got)
			}
			if hub := runOnHub(t, n, nil); hub == failed {
				t.Fatalf("%s: the run after reused the failed run's skeleton", f.name)
			}
		}
	})

	t.Run("a new size evicts the least recently released", func(t *testing.T) {
		releaseWorlds()
		for _, n := range []int{2, 3, 2} {
			runOnHub(t, n, nil)
		}
		if got := idleSizes(); !slices.Equal(got, []int{3, 2}) {
			t.Fatalf("idle sizes %v, want [3 2]", got)
		}
		runOnHub(t, 4, nil)
		if got := idleSizes(); !slices.Equal(got, []int{2, 4}) {
			t.Fatalf("idle sizes %v after a third size, want [2 4]", got)
		}
	})

	t.Run("concurrent runs of one size keep one skeleton", func(t *testing.T) {
		releaseWorlds()
		const n, runs = 64, 8
		var wg sync.WaitGroup
		errs := make(chan error, runs)
		for i := 0; i < runs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := Run(n, func(c *Comm) error {
					c.Barrier()
					if got := c.AllreduceScalarInt64(OpSum, 1); got != n {
						return fmt.Errorf("rank %d: allreduce = %d", c.Rank(), got)
					}
					return nil
				}, WithDeadline(30*time.Second))
				errs <- err
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := idleSizes(); !slices.Equal(got, []int{n}) {
			t.Fatalf("idle sizes %v after %d concurrent runs, want [%d]", got, runs, n)
		}
	})
}
