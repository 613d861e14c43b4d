// Package par provides the small data-parallel fan-out primitive used by
// the graph ingest pipeline (generators, CSR construction, matching
// setup). It is deliberately minimal: contiguous index ranges fanned out
// over GOMAXPROCS-bounded workers, with a hard rule the callers rely on
// for determinism — the *results* a caller computes must not depend on
// how [0,n) was split. Two caller patterns satisfy that rule:
//
//   - writes land at positions that are a pure function of the index
//     (e.g. edges[i] for sample i, or one CSR row per vertex), or
//   - per-span partial results are merged in span order afterwards, and
//     the downstream consumer is order-insensitive (e.g. an edge multiset
//     handed to the canonicalizing CSR builder).
//
// The package is a leaf and allocation-light; a call with one worker (or
// n below grain) runs inline with no goroutines at all.
package par

import (
	"runtime"
	"sync"
)

// maxWorkers bounds fan-out on very wide machines: past this width the
// ingest kernels are memory-bandwidth bound and extra workers only add
// per-span bookkeeping.
const maxWorkers = 64

// Workers returns the fan-out width used by Ranges: GOMAXPROCS at the
// time of the call, capped at maxWorkers.
func Workers() int {
	w := runtime.GOMAXPROCS(0)
	if w > maxWorkers {
		w = maxWorkers
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Split returns the contiguous spans [lo,hi) that Ranges(n, grain, ...)
// fans out: at most Workers() spans, each at least grain wide (except
// that a single span covers any n < 2*grain). Exposed so callers that
// need per-span scratch (counting-sort buckets, edge buffers) can size
// and index it before fanning out.
func Split(n, grain int) [][2]int {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if max := n / grain; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	spans := make([][2]int, w)
	for i := 0; i < w; i++ {
		spans[i] = [2]int{i * n / w, (i + 1) * n / w}
	}
	return spans
}

// Ranges runs fn over the Split(n, grain) spans concurrently and blocks
// until all complete. fn is called at most Workers() times on disjoint
// ranges covering [0,n) exactly once. With one span the call runs inline
// on the caller's goroutine.
func Ranges(n, grain int, fn func(lo, hi int)) {
	Do(Split(n, grain), func(_, lo, hi int) { fn(lo, hi) })
}

// Do runs fn concurrently over an explicit span list (normally one
// returned by Split, captured once so per-span scratch and the fan-out
// agree even if GOMAXPROCS changes between the two). Blocks until all
// spans complete; a single span runs inline on the caller's goroutine.
func Do(spans [][2]int, fn func(span, lo, hi int)) {
	if len(spans) == 0 {
		return
	}
	if len(spans) == 1 {
		fn(0, spans[0][0], spans[0][1])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(spans) - 1)
	for i := 1; i < len(spans); i++ {
		go func(i int) {
			defer wg.Done()
			fn(i, spans[i][0], spans[i][1])
		}(i)
	}
	fn(0, spans[0][0], spans[0][1])
	wg.Wait()
}
