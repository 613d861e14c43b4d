package analysis

import (
	"io"
	"sort"
	"strconv"

	"repro/internal/mpi"
)

// Enriched Chrome trace_event export. The base exporter in internal/mpi
// renders one slice per traced primitive; this one layers the analyzer's
// products on top so Perfetto shows not just what each rank did but what
// the run as a whole was limited by:
//
//   - two counter tracks: "outstanding msgs" (sends injected minus
//     receives completed, the in-flight user-message population) and
//     "wait depth" (how many ranks are blocked at once);
//   - a "critical path" track after the rank tracks, carrying the
//     bounding dependency edges as slices at the moment they held the
//     run back.
//
// Counter tracks are decimated to maxCounterPoints samples so a 16K-rank
// trace stays loadable.

// maxCounterPoints bounds each counter track's sample count.
const maxCounterPoints = 4096

// traceFlushBytes is how much of the document WriteChromeTrace buffers
// between writes.
const traceFlushBytes = 64 << 10

// WriteChromeTrace writes the run with its analysis overlay as one
// Chrome trace_event JSON document. It returns the first error the
// writer reported, having written nothing further after it.
func WriteChromeTrace(w io.Writer, label string, rep *mpi.Report, rec *Record) error {
	if label == "" {
		label = Label(rec.Model, rec.Procs)
	}
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
	b = append(elem(b), `{"ph":"M","pid":0,"name":"process_name","args":{"name":`...)
	b = mpi.AppendJSONString(b, label)
	b = append(b, `}}`...)

	var msgDeltas, waitDeltas []counterDelta
	for rank := 0; rank < rep.Procs; rank++ {
		b = appendThreadName(elem(b), rank)
		b = append(b, `rank `...)
		b = strconv.AppendInt(b, int64(rank), 10)
		if d := rep.EventDrops(rank); d > 0 {
			b = append(b, ` (dropped `...)
			b = strconv.AppendInt(b, d, 10)
			b = append(b, ')')
		}
		b = append(b, `"}}`...)
		for _, e := range rep.Events(rank) {
			b = mpi.AppendTraceSlice(elem(b), 0, rank, e)
			switch e.Kind {
			case mpi.EvSend:
				msgDeltas = append(msgDeltas, counterDelta{e.End, 1})
			case mpi.EvRecv:
				msgDeltas = append(msgDeltas, counterDelta{e.End, -1})
			case mpi.EvWait:
				waitDeltas = append(waitDeltas,
					counterDelta{e.Start, 1}, counterDelta{e.End, -1})
			}
		}
	}

	b = appendCounter(b, elem, "outstanding msgs", msgDeltas)
	b = appendCounter(b, elem, "wait depth", waitDeltas)

	// The critical-path track sits after the rank tracks.
	cpTid := rep.Procs
	b = appendThreadName(elem(b), cpTid)
	b = append(b, `critical path"}}`...)
	for _, e := range rec.CriticalPath.TopEdges {
		b = append(elem(b), `{"ph":"X","pid":0,"tid":`...)
		b = strconv.AppendInt(b, int64(cpTid), 10)
		b = append(b, `,"ts":`...)
		b = mpi.AppendUsec(b, e.AtSec-e.WaitSec)
		b = append(b, `,"dur":`...)
		b = mpi.AppendUsec(b, e.WaitSec)
		b = append(b, `,"name":`...)
		b = mpi.AppendJSONString(b, e.Class)
		b = append(b, `,"cat":"critical_path","args":{"rank":`...)
		b = strconv.AppendInt(b, int64(e.Rank), 10)
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(e.Peer), 10)
		b = append(b, `,"transfer_us":`...)
		b = mpi.AppendUsec(b, e.TransferSec)
		b = append(b, `}}`...)
	}

	b = append(b, "\n],\"displayTimeUnit\":\"ms\"}\n"...)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// appendThreadName appends a thread_name metadata row for track tid up
// to the opening quote of the name; the caller appends the name and
// closes the row.
func appendThreadName(b []byte, tid int) []byte {
	b = append(b, `{"ph":"M","pid":0,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	return append(b, `,"name":"thread_name","args":{"name":"`...)
}

// counterDelta is one +-1 step of a population counter at virtual time t.
type counterDelta struct {
	t float64
	d int
}

// appendCounter folds deltas into cumulative samples and appends them as
// a "C" counter track, decimated by stride when the sample count exceeds
// maxCounterPoints (the final sample always survives so the track ends
// at its true value). elem starts each sample's element.
func appendCounter(b []byte, elem func([]byte) []byte, name string, deltas []counterDelta) []byte {
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].t != deltas[j].t {
			return deltas[i].t < deltas[j].t
		}
		return deltas[i].d < deltas[j].d // decrements first: no phantom spike
	})
	stride := 1
	if len(deltas) > maxCounterPoints {
		stride = (len(deltas) + maxCounterPoints - 1) / maxCounterPoints
	}
	val := 0
	for i, d := range deltas {
		val += d.d
		if i%stride != 0 && i != len(deltas)-1 {
			continue
		}
		b = append(elem(b), `{"ph":"C","pid":0,"name":`...)
		b = mpi.AppendJSONString(b, name)
		b = append(b, `,"ts":`...)
		b = mpi.AppendUsec(b, d.t)
		b = append(b, `,"args":{"value":`...)
		b = strconv.AppendInt(b, int64(val), 10)
		b = append(b, `}}`...)
	}
	return b
}
