package analysis

import (
	"sort"
	"strconv"

	"repro/internal/mpi"
)

// Perfetto overlay. mpi.ChromeTrace renders one slice per traced
// primitive; a run added with its record's AppendTrace as overlay also
// shows what the run as a whole was limited by:
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

// AppendTrace is r's mpi.Overlay for rep, the run r analyzes: it appends
// the counter tracks and the critical-path track under process pid.
func (r *Record) AppendTrace(b []byte, elem func([]byte) []byte, pid int, rep *mpi.Report) []byte {
	var msgDeltas, waitDeltas []counterDelta
	for rank := 0; rank < rep.Procs; rank++ {
		for _, e := range rep.Events(rank) {
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
	b = appendCounter(b, elem, pid, "outstanding msgs", msgDeltas)
	b = appendCounter(b, elem, pid, "wait depth", waitDeltas)

	cpTid := rep.Procs
	b = mpi.AppendTrackName(elem(b), pid, cpTid, "critical path")
	for _, e := range r.CriticalPath.TopEdges {
		b = append(elem(b), `{"ph":"X","pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		b = append(b, `,"tid":`...)
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
	return b
}

// counterDelta is one +-1 step of a population counter at virtual time t.
type counterDelta struct {
	t float64
	d int
}

// appendCounter folds deltas into cumulative samples and appends them as
// a "C" counter track of process pid, decimated by stride when the
// sample count exceeds maxCounterPoints (the final sample always
// survives so the track ends at its true value). elem starts each
// sample's element.
func appendCounter(b []byte, elem func([]byte) []byte, pid int, name string, deltas []counterDelta) []byte {
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
		b = append(elem(b), `{"ph":"C","pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		b = append(b, `,"name":`...)
		b = mpi.AppendJSONString(b, name)
		b = append(b, `,"ts":`...)
		b = mpi.AppendUsec(b, d.t)
		b = append(b, `,"args":{"value":`...)
		b = strconv.AppendInt(b, int64(val), 10)
		b = append(b, `}}`...)
	}
	return b
}
