package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNewRoundLogPanics(t *testing.T) {
	for _, tc := range []struct{ capacity, width int }{{0, 4}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRoundLog(%d, %d) did not panic", tc.capacity, tc.width)
				}
			}()
			NewRoundLog(tc.capacity, tc.width)
		}()
	}
}

func TestNilLogIsInert(t *testing.T) {
	var l *RoundLog
	l.Append(1, 2, 3, 4, 5, 6, 7, []int64{8})
	if l.Len() != 0 || l.Drops() != 0 {
		t.Errorf("nil log: Len=%d Drops=%d", l.Len(), l.Drops())
	}
}

func TestAppendAndDrops(t *testing.T) {
	l := NewRoundLog(2, 2)
	l.SetTotal(10)
	l.Append(1.0, 5, 2, 3, 1, 0, 100, []int64{24, 0})
	l.Append(2.0, 0, 5, 4, 2, 1, 0, []int64{48, 0})
	l.Append(3.0, 0, 5, 4, 2, 1, 0, []int64{48, 0}) // beyond capacity
	if l.Len() != 2 || l.Drops() != 1 || l.Total() != 10 {
		t.Fatalf("Len=%d Drops=%d Total=%d, want 2, 1, 10", l.Len(), l.Drops(), l.Total())
	}
	r := l.Round(1)
	if r.Time != 2.0 || r.Unresolved != 0 || r.Done != 5 || r.Req != 4 || r.Rej != 2 || r.Inv != 1 || r.Queue != 0 {
		t.Errorf("row 1 = %+v", r)
	}
	if row := l.rows[1]; row.bytes != 48 || row.maxLink != 24 {
		t.Errorf("row 1 volume = %d, link %d, want 48, 24", row.bytes, row.maxLink)
	}
}

func TestAppendToleratesShortOrNilVolume(t *testing.T) {
	l := NewRoundLog(4, 3)
	l.Append(1, 0, 0, 0, 0, 0, 0, nil)
	l.Append(2, 0, 0, 0, 0, 0, 0, []int64{7})
	l.Append(3, 0, 0, 0, 0, 0, 0, []int64{1, 2, 3, 4, 5}) // longer than width
	if l.rows[0].bytes != 0 || l.rows[1].bytes != 7 || l.rows[1].maxLink != 7 {
		t.Errorf("short ledger: rows %+v", l.rows[:2])
	}
	// 1+2+3; the link maximum is cell 2's 3-0, not the ignored 4 or 5.
	if row := l.rows[2]; row.bytes != 6 || row.maxLink != 3 {
		t.Errorf("truncated ledger: volume %d, link %d, want 6, 3", row.bytes, row.maxLink)
	}
}

// TestMergeCarryForward exercises the heart of Merge: ranks finishing at
// different rounds contribute their final cumulative values to later
// points, per-round deltas are computed against the previous cumulative
// sum, and only ranks still producing rows compete for the per-round
// link maximum.
func TestMergeCarryForward(t *testing.T) {
	a := NewRoundLog(4, 2)
	a.SetTotal(10)
	a.Append(1.0, 5, 2, 3, 1, 0, 100, []int64{24, 0})
	a.Append(2.0, 0, 5, 4, 2, 1, 0, []int64{48, 0})
	b := NewRoundLog(4, 2)
	b.SetTotal(10)
	b.Append(1.5, 3, 4, 2, 0, 0, 50, []int64{0, 24}) // finishes after one round

	s := Merge([]*RoundLog{a, nil, b})
	if s.Procs != 2 || s.Total != 20 || s.Drops != 0 || s.Rounds() != 2 {
		t.Fatalf("series = %+v", s)
	}

	p0 := s.Points[0]
	if p0.Time != 1.5 || p0.Unresolved != 8 || p0.Done != 6 || p0.DoneFrac != 0.3 {
		t.Errorf("p0 = %+v", p0)
	}
	if p0.Req != 5 || p0.Rej != 1 || p0.Inv != 0 || p0.Bytes != 48 {
		t.Errorf("p0 deltas = %+v", p0)
	}
	if p0.MaxLinkBytes != 24 || p0.MaxQueueBytes != 100 {
		t.Errorf("p0 maxima = %+v", p0)
	}

	p1 := s.Points[1]
	// b's single row carries forward: instantaneous sums include it,
	// cumulative counters do not regress, deltas count only a's progress.
	if p1.Unresolved != 3 || p1.Done != 9 || p1.DoneFrac != 0.45 {
		t.Errorf("p1 = %+v", p1)
	}
	if p1.Req != 1 || p1.Rej != 1 || p1.Inv != 1 || p1.Bytes != 24 {
		t.Errorf("p1 deltas = %+v", p1)
	}
	// a's link delta is 48-24; b is carried forward and must not compete.
	if p1.MaxLinkBytes != 24 || p1.MaxQueueBytes != 50 {
		t.Errorf("p1 maxima = %+v", p1)
	}
	if f := s.Final(); f != p1 {
		t.Errorf("Final() = %+v, want %+v", f, p1)
	}
}

// refLog is the row-copy arithmetic RoundLog used before it kept two
// scalars a row: every Append stores the whole zero-padded ledger, and
// the merge derives a point's Bytes and MaxLinkBytes by walking each
// row against the one before it. Kept as the reference the summarising
// Append is held to.
type refLog struct {
	width int
	rows  [][]int64
}

func (l *refLog) append(nbrBytes []int64) {
	row := make([]int64, l.width)
	copy(row, nbrBytes) // copies min(len, width) cells
	l.rows = append(l.rows, row)
}

// refVolumes returns the per-round Bytes and MaxLinkBytes the row-copy
// merge computed for the given per-rank logs.
func refVolumes(logs []*refLog, rounds int) (bytes, maxLink []int64) {
	bytes, maxLink = make([]int64, rounds), make([]int64, rounds)
	prevBytes := int64(0)
	for r := 0; r < rounds; r++ {
		var cumBytes int64
		for _, l := range logs {
			if l == nil || len(l.rows) == 0 {
				continue
			}
			i := min(r, len(l.rows)-1)
			var prevRow []int64
			if i > 0 {
				prevRow = l.rows[i-1]
			}
			for d, b := range l.rows[i] {
				cumBytes += b
				delta := b
				if prevRow != nil {
					delta -= prevRow[d]
				}
				if i == r && delta > maxLink[r] {
					maxLink[r] = delta
				}
			}
		}
		bytes[r] = cumBytes - prevBytes
		prevBytes = cumBytes
	}
	return bytes, maxLink
}

// TestVolumesMatchRowCopyReference drives random logs — ranks stopping
// at different rounds, full logs dropping rows, ledgers that are nil,
// shorter or longer than the row width, and cells that shrink — through
// Append and through the reference, and requires the merged volumes to
// agree point for point.
func TestVolumesMatchRowCopyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		width, capacity := rng.Intn(6), 1+rng.Intn(8)
		logs := make([]*RoundLog, 1+rng.Intn(5))
		refs := make([]*refLog, len(logs))
		rounds := 0
		for k := range logs {
			if rng.Intn(6) == 0 {
				continue // a rank without a log
			}
			logs[k], refs[k] = NewRoundLog(capacity, width), &refLog{width: width}
			ledger := make([]int64, rng.Intn(width+3))
			for n := rng.Intn(capacity + 3); n > 0; n-- {
				for d := range ledger {
					ledger[d] += int64(rng.Intn(100) - 5) // mostly grows
				}
				arg := ledger
				if rng.Intn(5) == 0 {
					arg = ledger[:rng.Intn(len(ledger)+1)] // nil-like or short this round
				}
				logs[k].Append(0, 0, 0, 0, 0, 0, 0, arg)
				if len(refs[k].rows) < capacity {
					refs[k].append(arg)
				}
			}
			rounds = max(rounds, logs[k].Len())
		}
		s := Merge(logs)
		wantBytes, wantLink := refVolumes(refs, rounds)
		gotBytes, gotLink := make([]int64, s.Rounds()), make([]int64, s.Rounds())
		for r, p := range s.Points {
			gotBytes[r], gotLink[r] = p.Bytes, p.MaxLinkBytes
		}
		if !reflect.DeepEqual(gotBytes, wantBytes) || !reflect.DeepEqual(gotLink, wantLink) {
			t.Fatalf("trial %d (width %d, capacity %d): Bytes %v MaxLinkBytes %v, reference %v %v",
				trial, width, capacity, gotBytes, gotLink, wantBytes, wantLink)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	for _, logs := range [][]*RoundLog{nil, {nil, nil}, {NewRoundLog(2, 0)}} {
		s := Merge(logs)
		if s.Rounds() != 0 {
			t.Errorf("Merge(%v).Rounds() = %d", logs, s.Rounds())
		}
		if f := s.Final(); f != (Point{}) {
			t.Errorf("Final() = %+v, want zero", f)
		}
	}
}

// TestAppendZeroAlloc is the telemetry side of the repo's allocation
// contracts: recording a round is amortised zero-alloc. The rows grow by
// doubling, so the 1001 appends below allocate about ten times, which
// AllocsPerRun's whole-number average per append reads as 0; anything
// allocating per row reads at least 1.
func TestAppendZeroAlloc(t *testing.T) {
	l := NewRoundLog(1<<16, 8)
	nbr := make([]int64, 8)
	i := int64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		l.Append(float64(i), i, i, i, i, i, i, nbr)
		i++
	}); avg != 0 {
		t.Errorf("Append: %.2f allocs/op, want 0", avg)
	}
}
