// Package telemetry provides algorithm-level, round-granularity
// instrumentation for the owner-computes drivers (matching, coloring,
// BFS). Where package mpi's event rings trace individual runtime
// primitives, a RoundLog captures the quantities the paper's §V-D
// analysis reasons about one layer up: how the unresolved cross-edge
// count (the "nghosts" sum) drains round by round, how many
// REQUEST/REJECT/INVALID protocol records each round pushes, how much
// volume flows toward each neighbor, and how deep the receive queues
// get while the protocol converges.
//
// A log's rows grow to use, up to its capacity, and Append is one row
// append plus one pass over the per-neighbor ledger: amortised zero-alloc,
// and a rank's telemetry costs O(rounds recorded + degree), never the
// world size.
// As with the event logs, rows beyond the capacity are counted in a
// drop counter rather than evicting earlier ones, and a disabled log is
// a nil pointer whose entire cost at each instrumentation point is one
// nil check.
//
// Counters recorded per row are cumulative (the engines' running
// totals); Merge converts them to per-round deltas when folding the
// per-rank logs into a run-level Series.
package telemetry

import "fmt"

// RoundLog is one rank's round-level telemetry store. It is written only
// by the owning rank goroutine during a run and read only after the run
// completes, so it needs no synchronization.
type RoundLog struct {
	total int64 // work-item denominator for done fractions (owned vertices)

	capacity int
	dropped  int64
	rows     []row

	prev []int64 // the previous row's ledger, zero-padded to the row width
}

// row is one recorded round: the counters as given, and the ledger's sum
// and largest per-neighbor growth since the previous row.
type row struct {
	Round
	bytes, maxLink int64
}

// NewRoundLog returns a log holding up to capacity rounds, each
// summarising a per-neighbor byte ledger of the given width (the rank's
// process-graph degree; width 0 disables volume capture).
func NewRoundLog(capacity, width int) *RoundLog {
	if capacity < 1 {
		panic(fmt.Sprintf("telemetry: RoundLog capacity = %d", capacity))
	}
	if width < 0 {
		panic(fmt.Sprintf("telemetry: RoundLog width = %d", width))
	}
	return &RoundLog{capacity: capacity, rows: make([]row, 0, min(capacity, initialRows)), prev: make([]int64, width)}
}

// initialRows is where a log's rows start: a round-flavour run records
// 10–30 rows, and growing through 1, 2, 4 and 8 rows first cost NCL
// matching at 16384 ranks about 0.2 s of its ~2 s of host time (2-CPU
// x86-64 VM).
const initialRows = 16

// SetTotal records the rank's work-item count (owned vertices), the
// denominator of the Series' done fractions.
func (l *RoundLog) SetTotal(total int64) { l.total = total }

// Append records one driver round. now is the rank's virtual clock at
// the round boundary; unresolved and done are the engine's current
// state; req, rej and inv are the engine's cumulative per-kind protocol
// send counters; queue is the rank's current mailbox occupancy in
// bytes; nbrBytes is the transport's cumulative per-neighbor payload
// ledger (may be nil or shorter than the row width, in which case the
// remainder counts as zero; cells past the width are ignored). The row
// keeps the ledger's sum and its largest per-neighbor growth since the
// previous row, not the ledger. A nil receiver and a full log are both
// no-ops — the latter bumps the drop counter so truncation is
// detectable.
func (l *RoundLog) Append(now float64, unresolved, done, req, rej, inv, queue int64, nbrBytes []int64) {
	if l == nil {
		return
	}
	if len(l.rows) == l.capacity {
		l.dropped++
		return
	}
	var sum, maxLink int64
	for d, was := range l.prev {
		var b int64
		if d < len(nbrBytes) {
			b = nbrBytes[d]
		}
		sum += b
		if b-was > maxLink {
			maxLink = b - was
		}
		l.prev[d] = b
	}
	l.rows = append(l.rows, row{Round{now, unresolved, done, req, rej, inv, queue}, sum, maxLink})
}

// Len returns the number of recorded rounds.
func (l *RoundLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.rows)
}

// Drops returns how many rounds were discarded after the log filled.
func (l *RoundLog) Drops() int64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Total returns the value set by SetTotal.
func (l *RoundLog) Total() int64 { return l.total }

// Round is one recorded row. Counters are cumulative as recorded.
type Round struct {
	Time       float64
	Unresolved int64
	Done       int64
	Req, Rej   int64
	Inv        int64
	Queue      int64
}

// Round returns row i.
func (l *RoundLog) Round(i int) Round { return l.rows[i].Round }

// Point is one round of a merged run-level Series. Message-kind counts
// and byte volumes are per-round deltas summed over ranks; Unresolved
// and Done are instantaneous sums; Time, MaxLinkBytes and
// MaxQueueBytes are maxima over ranks. The JSON tags are the run
// record's round_series schema.
type Point struct {
	Round      int     `json:"round"`
	Time       float64 `json:"time_sec"`   // latest rank clock at this round boundary
	Unresolved int64   `json:"unresolved"` // the paper's nghosts sum across ranks
	Done       int64   `json:"-"`          // matched / colored / visited work items
	DoneFrac   float64 `json:"done_frac"`  // Done over the run's total work items
	Req        int64   `json:"requests"`   // REQUEST (or announcement / visit) records this round
	Rej        int64   `json:"rejects"`    // REJECT records this round
	Inv        int64   `json:"invalids"`   // INVALID records this round
	Bytes      int64   `json:"bytes"`      // payload bytes pushed this round, all ranks and links
	// MaxLinkBytes is the heaviest single (rank, destination) volume
	// this round — the per-neighbor hot spot.
	MaxLinkBytes int64 `json:"max_link_bytes"`
	// MaxQueueBytes is the deepest mailbox occupancy any rank reported
	// at this round boundary.
	MaxQueueBytes int64 `json:"max_queue_bytes"`
}

// Series is the run-level view of per-rank RoundLogs: one Point per
// round, with shorter ranks' final rows carried forward so cumulative
// counters stay consistent.
type Series struct {
	Procs  int   // ranks that contributed a log
	Total  int64 // total work items across ranks (done-fraction denominator)
	Drops  int64 // rows discarded across all ranks
	Points []Point
}

// Rounds returns the number of merged rounds.
func (s *Series) Rounds() int { return len(s.Points) }

// Final returns the last point (zero Point for an empty series).
func (s *Series) Final() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// Merge folds per-rank logs (nil entries allowed) into a Series. Rank
// rows are aligned by index; a rank past its last row contributes its
// final cumulative values, so sums never regress when ranks finish at
// different rounds.
func Merge(logs []*RoundLog) *Series {
	s := &Series{}
	rounds := 0
	for _, l := range logs {
		if l == nil {
			continue
		}
		s.Procs++
		s.Total += l.total
		s.Drops += l.Drops()
		if l.Len() > rounds {
			rounds = l.Len()
		}
	}
	if rounds == 0 {
		return s
	}
	s.Points = make([]Point, rounds)
	prevReq, prevRej, prevInv := int64(0), int64(0), int64(0)
	prevBytes := int64(0)
	for r := 0; r < rounds; r++ {
		p := Point{Round: r}
		var cumReq, cumRej, cumInv, cumBytes int64
		for _, l := range logs {
			if l == nil || l.Len() == 0 {
				continue
			}
			i := r
			if i >= l.Len() {
				i = l.Len() - 1
			}
			rw := &l.rows[i]
			if rw.Time > p.Time {
				p.Time = rw.Time
			}
			p.Unresolved += rw.Unresolved
			p.Done += rw.Done
			cumReq += rw.Req
			cumRej += rw.Rej
			cumInv += rw.Inv
			if rw.Queue > p.MaxQueueBytes {
				p.MaxQueueBytes = rw.Queue
			}
			cumBytes += rw.bytes
			// Only ranks still producing rows at r compete for the
			// per-round link hot spot; a carried-forward row pushed
			// nothing this round.
			if i == r && rw.maxLink > p.MaxLinkBytes {
				p.MaxLinkBytes = rw.maxLink
			}
		}
		p.Req = cumReq - prevReq
		p.Rej = cumRej - prevRej
		p.Inv = cumInv - prevInv
		p.Bytes = cumBytes - prevBytes
		if s.Total > 0 {
			p.DoneFrac = float64(p.Done) / float64(s.Total)
		}
		prevReq, prevRej, prevInv, prevBytes = cumReq, cumRej, cumInv, cumBytes
		s.Points[r] = p
	}
	return s
}
