package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestSplitCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64, 1000, 1 << 20} {
		for _, grain := range []int{0, 1, 16, 4096} {
			spans := Split(n, grain)
			if n == 0 {
				if spans != nil {
					t.Fatalf("Split(0) = %v", spans)
				}
				continue
			}
			next := 0
			for _, s := range spans {
				if s[0] != next || s[1] <= s[0] {
					t.Fatalf("Split(%d,%d) = %v: bad span %v", n, grain, spans, s)
				}
				next = s[1]
			}
			if next != n {
				t.Fatalf("Split(%d,%d) covers to %d", n, grain, next)
			}
			if len(spans) > Workers() {
				t.Fatalf("Split(%d,%d): %d spans > %d workers", n, grain, len(spans), Workers())
			}
		}
	}
}

func TestSplitRespectsGrain(t *testing.T) {
	spans := Split(100, 60) // only one span of >= 60 fits
	if len(spans) != 1 || spans[0] != [2]int{0, 100} {
		t.Fatalf("Split(100, 60) = %v, want one full span", spans)
	}
}

func TestRangesVisitsEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	const n = 100000
	marks := make([]int32, n)
	Ranges(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("index %d visited %d times", i, m)
		}
	}
}

func TestDoSpanIndexMatchesSplit(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	spans := Split(10000, 1)
	got := make([][2]int, len(spans))
	Do(spans, func(span, lo, hi int) {
		got[span] = [2]int{lo, hi}
	})
	for i := range spans {
		if got[i] != spans[i] {
			t.Fatalf("span %d: Do saw %v, Split says %v", i, got[i], spans[i])
		}
	}
}

func TestRangesInlineWhenTiny(t *testing.T) {
	// n below grain must run on the calling goroutine (single span).
	ran := false
	Ranges(10, 100, func(lo, hi int) {
		if lo != 0 || hi != 10 {
			t.Fatalf("span [%d,%d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn never ran")
	}
	Ranges(0, 1, func(lo, hi int) { t.Fatal("fn ran for n=0") })
}
