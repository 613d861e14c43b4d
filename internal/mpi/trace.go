package mpi

import (
	"fmt"
	"strings"
)

// Wait timelines. A run with event tracing on (WithEventTrace) records
// every virtual-time interval a rank spends blocked waiting for remote
// progress (message arrivals, collective synchronization) as an EvWait
// event. The per-rank timelines rendered from them make load imbalance
// and serialization chains — the phenomena behind the paper's
// NCL-degradation findings — directly visible. A log that filled
// (Report.EventDrops) loses the waits past that point.

// RenderTimeline draws per-rank virtual-time utilization as text: each
// row is one rank, each column a bucket of the run's duration; '#' marks
// buckets dominated by waiting, ':' mixed, '.' busy. Requires a run with
// event tracing.
func (r *Report) RenderTimeline(width int) []string {
	if !r.EventTracing() || width < 1 || r.MaxVirtualTime <= 0 {
		return nil
	}
	bucket := r.MaxVirtualTime / float64(width)
	out := make([]string, r.Procs)
	for rank := 0; rank < r.Procs; rank++ {
		waitPerBucket := make([]float64, width)
		for _, events := range r.Events(rank).Chunks() {
			for i := range events {
				s := &events[i]
				if s.Kind != EvWait {
					continue
				}
				for b := int(s.Start / bucket); b < width && float64(b)*bucket < s.End; b++ {
					lo := max(float64(b)*bucket, s.Start)
					hi := min(float64(b+1)*bucket, s.End)
					if hi > lo {
						waitPerBucket[b] += hi - lo
					}
				}
			}
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "rank %3d |", rank)
		for b := 0; b < width; b++ {
			frac := waitPerBucket[b] / bucket
			switch {
			case frac > 0.66:
				sb.WriteByte('#')
			case frac > 0.15:
				sb.WriteByte(':')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('|')
		out[rank] = sb.String()
	}
	return out
}
