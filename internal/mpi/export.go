package mpi

import (
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// Chrome trace_event export. A traced Report (Config.TraceEvents > 0)
// can be rendered as the JSON object format understood by
// chrome://tracing and Perfetto: each run becomes one "process", each
// rank one "thread" track, and each recorded Event one complete ("X")
// slice on the rank's virtual timeline. Timestamps are virtual seconds
// converted to microseconds, the unit the viewers expect, so a trace of
// a modeled run reads exactly like a TAU/Chrome profile of a real one.
//
// The document is appended piece by piece — literal segments,
// strconv.AppendInt, AppendUsec — into one buffer that is handed to the
// io.Writer whenever it passes traceFlushBytes, so an export costs one
// buffer whatever the trace's size and nothing per event. It is
// hand-formatted (not encoding/json) so the output is deterministic
// byte-for-byte — the golden-file test depends on that. A run may carry
// an Overlay, which appends further elements to the run's process
// through the same buffer; AppendUsec, AppendJSONString and
// AppendTrackName are exported for overlays (internal/analysis draws its
// counter and critical-path tracks with them).

// ChromeTrace accumulates one or more completed runs for export into a
// single trace file, e.g. the same experiment under every communication
// model side by side.
type ChromeTrace struct {
	labels   []string
	reports  []*Report
	overlays []Overlay
}

// An Overlay appends extra elements for one run after the run's rank
// tracks, under its process id pid. elem starts each element as Write
// starts its own, writing out the buffer when it is full; track ids
// rep.Procs and up are free.
type Overlay func(b []byte, elem func([]byte) []byte, pid int, rep *Report) []byte

// NewChromeTrace returns an empty trace accumulator.
func NewChromeTrace() *ChromeTrace { return &ChromeTrace{} }

// Add appends a completed run under the given process label, drawn
// with overlay after its rank tracks unless overlay is nil. Reports
// without event tracing enabled still get their track skeleton (useful
// to spot them missing) but contribute no slices.
func (t *ChromeTrace) Add(label string, rep *Report, overlay Overlay) {
	t.labels = append(t.labels, label)
	t.reports = append(t.reports, rep)
	t.overlays = append(t.overlays, overlay)
}

// Len returns the number of runs accumulated.
func (t *ChromeTrace) Len() int { return len(t.reports) }

// traceFlushBytes is how much of the document Write buffers between
// writes. The buffer's capacity leaves room for one more element on
// top, so appending grows it only for an outsized label.
const traceFlushBytes = 64 << 10

// Write writes the accumulated runs as one trace_event JSON document.
// It returns the first error the writer reported, having written
// nothing further after it.
func (t *ChromeTrace) Write(w io.Writer) error {
	var err error
	sep := "\n"
	// elem starts the document's next element, after writing out the
	// buffer if it is full.
	elem := func(b []byte) []byte {
		if len(b) >= traceFlushBytes {
			if err == nil {
				_, err = w.Write(b)
			}
			b = b[:0]
		}
		b = append(b, sep...)
		sep = ",\n"
		return b
	}
	b := make([]byte, 0, traceFlushBytes+1024)
	b = append(b, `{"traceEvents":[`...)
	for pid, rep := range t.reports {
		b = append(elem(b), `{"ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		b = append(b, `,"name":"process_name","args":{"name":`...)
		b = AppendJSONString(b, t.labels[pid])
		b = append(b, `}}`...)
		for rank := 0; rank < rep.Procs; rank++ {
			b = append(appendThreadName(elem(b), pid, rank), `"rank `...)
			b = strconv.AppendInt(b, int64(rank), 10)
			if d := rep.EventDrops(rank); d > 0 {
				b = append(b, ` (dropped `...)
				b = strconv.AppendInt(b, d, 10)
				b = append(b, ')')
			}
			b = append(b, `"}}`...)
			for _, e := range rep.Events(rank) {
				b = appendTraceSlice(elem(b), pid, rank, e)
			}
		}
		if o := t.overlays[pid]; o != nil {
			b = o(b, elem, pid, rep)
		}
	}
	b = append(b, "\n],\"displayTimeUnit\":\"ms\"}\n"...)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// WriteChromeTrace writes this run alone as a Chrome trace_event JSON
// document. Requires a run with Config.TraceEvents (the document is
// valid but empty of slices otherwise).
func (r *Report) WriteChromeTrace(w io.Writer) error {
	t := NewChromeTrace()
	t.Add("mpi run", r, nil)
	return t.Write(w)
}

// appendThreadName appends the head of the metadata row naming track
// (pid, tid), up to where the name's string value begins.
func appendThreadName(b []byte, pid, tid int) []byte {
	b = append(b, `{"ph":"M","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	return append(b, `,"name":"thread_name","args":{"name":`...)
}

// AppendTrackName appends the metadata row naming an overlay's track
// (pid, tid).
func AppendTrackName(b []byte, pid, tid int, name string) []byte {
	return append(AppendJSONString(appendThreadName(b, pid, tid), name), `}}`...)
}

// appendTraceSlice appends e to b as one complete ("X") trace_event
// slice on track (pid, tid): timestamp and duration in microseconds,
// the kind as name, and peer, tag and bytes as args. A classified wait
// carries its dependency edge instead of a tag: the causing rank as
// peer, the wait class, and that rank's clock when it enabled progress.
func appendTraceSlice(b []byte, pid, tid int, e Event) []byte {
	b = append(b, `{"ph":"X","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = AppendUsec(b, e.Start)
	b = append(b, `,"dur":`...)
	b = AppendUsec(b, e.Duration())
	b = append(b, `,"name":"`...)
	b = append(b, e.Kind.String()...)
	if e.Kind == EvWait && e.Class != WaitNone {
		b = append(b, `","cat":"wait","args":{"peer":`...)
		b = strconv.AppendInt(b, int64(e.Peer), 10)
		b = append(b, `,"bytes":0,"class":"`...)
		b = append(b, e.Class.String()...)
		b = append(b, `","cause_t":`...)
		b = AppendUsec(b, e.CauseT)
		return append(b, `}}`...)
	}
	b = append(b, `","cat":"`...)
	b = append(b, e.Kind.Category()...)
	b = append(b, `","args":{"peer":`...)
	b = strconv.AppendInt(b, int64(e.Peer), 10)
	b = append(b, `,"tag":`...)
	b = strconv.AppendInt(b, int64(e.Tag), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, e.Bytes, 10)
	return append(b, `}}`...)
}

// AppendUsec appends virtual seconds as microseconds rounded to the
// nanosecond, trailing zeros trimmed: the bytes
// strconv.FormatFloat(sec*1e6, 'f', 3, 64) yields once trimmed. strconv
// has no fast path for that format (every call is a multiprecision
// decimal conversion), so the common case is done in integers: for
// x = sec*1e6 = m·2^-s with m < 2^53, m·1000 fits in 63 bits, and
// x·1000 rounded half-to-even is a shift of it — exactly the rounding
// strconv applies to the exact decimal expansion. Negative, subnormal,
// non-finite values and those of 2^52 and up go through strconv.
func AppendUsec(b []byte, sec float64) []byte {
	x := sec * 1e6
	bits := math.Float64bits(x)
	if bits == 0 {
		return append(b, '0')
	}
	// s is the shift that scales the 53-bit mantissa down to x.
	s := 1075 - int(bits>>52)
	if s <= 0 || s >= 1075 {
		// Sign bit set or exponent all ones (s < 0), x >= 2^52 (s <= 0),
		// or subnormal (s == 1075).
		b = strconv.AppendFloat(b, x, 'f', 3, 64)
		// A finite value has a point for the trimming to stop at; NaN
		// and ±Inf end in neither a zero nor a point.
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
		if b[len(b)-1] == '.' {
			b = b[:len(b)-1]
		}
		return b
	}
	var q uint64 // x·1000 rounded to an integer: x in nanoseconds
	if s < 64 {
		v := (bits&(1<<52-1) | 1<<52) * 1000
		q = v >> s
		rem, half := v&(1<<s-1), uint64(1)<<(s-1)
		if rem > half || rem == half && q&1 == 1 {
			q++
		}
	} // else x·1000 < 2^63·2^-64: rounds to 0
	b = strconv.AppendUint(b, q/1000, 10)
	if f := q % 1000; f != 0 {
		b = append(b, '.', byte('0'+f/100), byte('0'+f/10%10), byte('0'+f%10))
		for b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
	}
	return b
}

// AppendJSONString appends s to b as a JSON string: quote, backslash
// and control bytes escaped, every byte that is not valid UTF-8 replaced
// by U+FFFD, everything else as is.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		case c < utf8.RuneSelf:
			b = append(b, c)
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r) // RuneError for an invalid byte
			i += size
			continue
		}
		i++
	}
	return append(b, '"')
}
