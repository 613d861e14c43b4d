package mpi

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPutGetBasic(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		win := c.WinCreate(8)
		if c.Rank() == 0 {
			win.Put(1, 2, []int64{10, 20, 30})
			win.FlushAll()
			c.Isend(1, 0, []int64{1}) // synchronize: tell target data is there
		} else {
			c.Recv(0, 0)
			local := win.ReadLocal(nil, 0, 8)
			if local[2] != 10 || local[3] != 20 || local[4] != 30 {
				t.Errorf("window = %v", local)
			}
			if local[0] != 0 || local[5] != 0 {
				t.Errorf("put touched bytes outside its range: %v", local)
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			if got := win.ReadLocal(nil, 0, 1)[0]; got != 0 {
				t.Errorf("untargeted window word = %d, want a fresh zero", got)
			}
		}
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutVisibilityAcrossCountExchange(t *testing.T) {
	// The paper's RMA pattern: puts, flush, then a neighborhood count
	// exchange tells each target how many words landed.
	const p = 4
	_, err := runChecked(p, func(c *Comm) error {
		topo := c.CreateGraphTopo(ringNeighbors(c.Rank(), p))
		deg := topo.Degree()
		const slot = 4 // words reserved per neighbor
		win := c.WinCreate(deg * slot)

		// Each rank puts (rank, seq) pairs into the slot its target
		// reserved for it. The target's slot for us is at index
		// (their NeighborIndex of us) * slot — exchange those indexes
		// first, as the paper's prefix-sum/alltoall scheme does.
		mine := make([]int64, deg)
		nbrs := ringNeighbors(c.Rank(), p)
		for i, nb := range nbrs {
			mine[i] = int64(topo.NeighborIndex(nb)) // our slot index for them, by construction i
		}
		theirIdx := topo.NeighborAlltoallInt64(mine, 1)

		counts := make([]int64, deg)
		for i, nb := range nbrs {
			n := int64(1 + (c.Rank()+nb)%3) // 1..3 words
			data := make([]int64, n)
			for k := range data {
				data[k] = int64(c.Rank()*100 + k)
			}
			win.Put(nb, int(theirIdx[i])*slot, data)
			counts[i] = n
		}
		win.FlushAll()
		incoming := topo.NeighborAlltoallInt64(counts, 1)

		local := win.ReadLocal(nil, 0, deg*slot)
		for i, nb := range nbrs {
			n := int(incoming[i])
			want := 1 + (nb+c.Rank())%3
			if n != want {
				t.Errorf("rank %d: count from %d = %d, want %d", c.Rank(), nb, n, want)
			}
			for k := 0; k < n; k++ {
				if local[i*slot+k] != int64(nb*100+k) {
					t.Errorf("rank %d: word %d from %d = %d", c.Rank(), k, nb, local[i*slot+k])
				}
			}
		}
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutBoundsPanics(t *testing.T) {
	_, err := runChecked(2, func(c *Comm) error {
		win := c.WinCreate(4)
		if c.Rank() == 0 {
			win.Put(1, 3, []int64{1, 2}) // overruns the 4-word window
		}
		win.Free()
		return nil
	})
	if err == nil {
		t.Fatal("out-of-bounds put must fail the run")
	}
}

func TestWindowMemoryAccounted(t *testing.T) {
	rep, err := runChecked(2, func(c *Comm) error {
		win := c.WinCreate(1000)
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rs := range rep.Stats {
		if rs.AllocHighWater != 8000 {
			t.Errorf("rank %d window high-water = %d, want 8000", r, rs.AllocHighWater)
		}
		if rs.AllocCurrent != 0 {
			t.Errorf("rank %d leaked %d buffer bytes", r, rs.AllocCurrent)
		}
	}
}

func TestFlushDrainsPendingTime(t *testing.T) {
	// Flushing after large puts must cost more than flushing after none.
	run := func(words int) float64 {
		rep, err := runChecked(2, func(c *Comm) error {
			win := c.WinCreate(words + 1)
			if c.Rank() == 0 {
				if words > 0 {
					win.Put(1, 0, make([]int64, words))
				}
				win.FlushAll()
			}
			c.Barrier()
			win.Free()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Stats[0].CommTime
	}
	if big, small := run(1<<16), run(0); big <= small {
		t.Errorf("flush after 512KiB of puts (%g) should cost more than empty flush (%g)", big, small)
	}
}

func TestDifferentWindowSizesPerRank(t *testing.T) {
	_, err := runChecked(3, func(c *Comm) error {
		size := func(r int) int { return (r + 1) * 2 }
		win := c.WinCreate(size(c.Rank()))
		// A put is bounded by the target's size, not the origin's: every
		// rank writes the last word of its successor's window.
		next, prev := (c.Rank()+1)%3, (c.Rank()+2)%3
		win.Put(next, size(next)-1, []int64{int64(c.Rank() + 1)})
		win.FlushAll()
		c.Barrier()
		local := win.ReadLocal(nil, 0, size(c.Rank()))
		if local[len(local)-1] != int64(prev+1) {
			t.Errorf("rank %d window = %v, want %d words ending in %d", c.Rank(), local, size(c.Rank()), prev+1)
		}
		win.Free()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAQuickPutGetIdentity(t *testing.T) {
	// Property: any vector put into a peer window is what the target
	// reads back with ReadLocal after a synchronising exchange.
	f := func(vals []int64) bool {
		if len(vals) > 256 {
			vals = vals[:256]
		}
		ok := true
		_, err := runChecked(2, func(c *Comm) error {
			win := c.WinCreate(len(vals) + 1)
			if c.Rank() == 0 {
				win.Put(1, 0, vals)
				win.FlushAll()
			}
			c.Barrier()
			if c.Rank() == 1 {
				got := win.ReadLocal(nil, 0, len(vals))
				for i := range vals {
					if got[i] != vals[i] {
						ok = false
					}
				}
			}
			win.Free()
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// runWinModel replays data as window operations on a two-rank world and
// checks the paged Win against a flat []int64 reference per rank. data[0]
// and data[1] size the two windows (0 to a little over four pages); then
// every 5 bytes are one op: a flags byte (bit 0 read, bit 1 target rank,
// bit 2 a long range, bit 3 a negative displacement) and big-endian
// 16-bit displacement and length. Rank 0 issues every Put, to either
// rank's window; a read flushes, fences with a barrier, and has the
// target read the range back with ReadLocal. Out-of-range Puts and reads
// must panic naming the window; after the last op both ranks compare
// their whole window, so untouched pages are checked to read as zeros.
func runWinModel(data []byte) error {
	if len(data) < 2 {
		return nil
	}
	var size [2]int
	for r := range size {
		size[r] = int(data[r]) * 13 % (4*winPageWords + 7)
	}
	data = data[2:]
	ref := [2][]int64{make([]int64, size[0]), make([]int64, size[1])}
	var errs [2]error
	_, err := testRun(2, func(c *Comm) error {
		me := c.Rank()
		fail := func(format string, args ...any) {
			if errs[me] == nil {
				errs[me] = fmt.Errorf(format, args...)
			}
		}
		expectPanic := func(i int, what string, f func()) {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside window") {
					fail("op %d: %s: panic %v, want one naming the window", i, what, r)
				}
			}()
			f()
		}
		win := c.WinCreate(size[me])
		var buf []int64
		next := int64(1) // put payloads are distinct and non-zero
		for i := 0; i+5 <= len(data); i += 5 {
			flags := data[i]
			tgt := int(flags>>1) & 1
			disp := int(data[i+1])<<8 | int(data[i+2])
			n := int(data[i+3])<<8 | int(data[i+4])
			disp %= size[tgt] + 4
			if flags&4 != 0 {
				n %= 3 * winPageWords
			} else {
				n %= winPageWords + 5
			}
			if flags&8 != 0 {
				disp = -1 - disp%3
			}
			in := disp >= 0 && disp+n <= size[tgt]
			if flags&1 == 0 { // a Put by rank 0
				if me != 0 {
					continue
				}
				vals := make([]int64, n)
				for k := range vals {
					vals[k] = next
					next++
				}
				if !in {
					expectPanic(i/5, "Put", func() { win.Put(tgt, disp, vals) })
					continue
				}
				win.Put(tgt, disp, vals)
				copy(ref[tgt][disp:], vals)
				continue
			}
			if me == 0 {
				win.FlushAll()
			}
			c.Barrier()
			if me == tgt {
				if !in {
					expectPanic(i/5, "ReadLocal", func() { win.ReadLocal(buf, disp, n) })
				} else if buf = win.ReadLocal(buf, disp, n); !slices.Equal(buf, ref[tgt][disp:disp+n]) {
					fail("op %d: rank %d read [%d,%d) = %v, want %v", i/5, me, disp, disp+n, buf, ref[tgt][disp:disp+n])
				}
			}
			c.Barrier()
		}
		if me == 0 {
			win.FlushAll()
		}
		c.Barrier()
		if got := win.ReadLocal(nil, 0, size[me]); !slices.Equal(got, ref[me]) {
			fail("final: rank %d window = %v, want %v", me, got, ref[me])
		}
		win.Free()
		return nil
	})
	return errors.Join(err, errs[0], errs[1])
}

// TestWinPagedMatchesFlat drives the paged window and its flat reference
// with random 50-op sequences.
func TestWinPagedMatchesFlat(t *testing.T) {
	prop := func(data [252]byte) bool {
		if err := runWinModel(data[:]); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// winModelCases are hand-written op sequences, run by go test as the
// fuzzer's seed corpus.
var winModelCases = [][]byte{
	// A put straddling rank 1's first page boundary, read back across it
	// and over the untouched second page.
	{40, 40, 2, 0, winPageWords - 3, 0, 6, 3, 0, winPageWords - 8, 0, 2*winPageWords - 10},
	// Rank 0 puts into its own window, then an out-of-range put and read
	// on rank 1's, then a negative displacement.
	{30, 1, 0, 0, 5, 0, 9, 2, 0, 12, 0, 30, 3, 0, 10, 0, 10, 10, 0, 0, 0, 1},
	// Empty windows: every non-empty range is out of range.
	{0, 0, 2, 0, 0, 0, 1, 3, 0, 0, 0, 0},
}

func FuzzWinPages(f *testing.F) {
	for _, c := range winModelCases {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runWinModel(data); err != nil {
			t.Fatal(err)
		}
	})
}
