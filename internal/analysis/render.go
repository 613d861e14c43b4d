package analysis

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Text rendering for matchbench -analyze and -in. The package
// deliberately does not import internal/harness (harness embeds
// analysis Records), so it carries its own small tabwriter helpers; the
// output style matches the harness tables.

// Render writes the full report: wait states, critical path, efficiency
// and (when present) the per-round resolution.
func (r *Record) Render(w io.Writer, label string) {
	if label == "" {
		label = Label(r.Model, r.Procs)
	}
	fmt.Fprintf(w, "== %s: %s total, %s blocked across %d ranks (%d events)\n",
		label, fsec(r.TimeSec), fsec(r.TotalWaitSec), r.Procs, r.Events)
	if r.EventsTruncated {
		fmt.Fprintf(w, "WARNING: event rings dropped %d events; analysis is a prefix view (raise TraceEvents)\n",
			r.DroppedEvents)
	}
	r.RenderWaitStates(w)
	r.RenderCriticalPath(w)
	r.RenderEfficiency(w)
	r.RenderRounds(w)
}

// RenderWaitStates writes the wait-state classification table. Derived
// classes (probe_spin, late_receiver) are marked: they measure overhead
// evidence, not blocked time, and do not sum into the total.
func (r *Record) RenderWaitStates(w io.Writer) {
	if len(r.WaitStates) == 0 {
		fmt.Fprintln(w, "wait states: none recorded")
		return
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "wait state\tseconds\tshare\tcount\ttop causes")
	anyDerived := false
	for _, ws := range r.WaitStates {
		class := ws.Class
		if ws.Derived {
			class += " *"
			anyDerived = true
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\n",
			class, fsec(ws.Seconds), pct(ws.Share), ws.Count, causeList(ws.TopCauses, 3))
	}
	tw.Flush()
	if anyDerived {
		fmt.Fprintln(w, "  (* derived: overhead evidence, outside the blocked total)")
	}
}

// RenderCriticalPath writes the path length, its activity breakdown and
// the bounding dependency edges.
func (r *Record) RenderCriticalPath(w io.Writer) {
	cp := &r.CriticalPath
	fmt.Fprintf(w, "critical path: %s across %d cross-rank hops", fsec(cp.LengthSec), cp.Hops)
	if cp.Truncated {
		fmt.Fprint(w, " (truncated)")
	}
	fmt.Fprintln(w)
	if len(cp.ByKind) > 0 {
		kinds := make([]string, 0, len(cp.ByKind))
		for k := range cp.ByKind {
			kinds = append(kinds, k)
		}
		sortByKindDesc(kinds, cp.ByKind)
		parts := make([]string, 0, len(kinds))
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%s %s (%s)", k, fsec(cp.ByKind[k]), pct(cp.ByKind[k]/nonZero(cp.LengthSec))))
		}
		fmt.Fprintf(w, "  by activity: %s\n", strings.Join(parts, ", "))
	}
	if len(cp.RankShares) > 0 {
		parts := make([]string, 0, len(cp.RankShares))
		for _, rs := range cp.RankShares {
			parts = append(parts, fmt.Sprintf("r%d %s", rs.Rank, pct(rs.Seconds/nonZero(cp.LengthSec))))
		}
		fmt.Fprintf(w, "  by rank: %s\n", strings.Join(parts, ", "))
	}
	if len(cp.TopEdges) > 0 {
		tw := newTab(w)
		fmt.Fprintln(tw, "  edge\tclass\twait\ttransfer\tat")
		for _, e := range cp.TopEdges {
			fmt.Fprintf(tw, "  r%d<-r%d\t%s\t%s\t%s\t%s\n",
				e.Rank, e.Peer, e.Class, fsec(e.WaitSec), fsec(e.TransferSec), fsec(e.AtSec))
		}
		tw.Flush()
	}
}

// RenderEfficiency writes the POP factorization one metric per line.
func (r *Record) RenderEfficiency(w io.Writer) {
	e := &r.Efficiency
	fmt.Fprintf(w, "efficiency: parallel %s = load balance %s x comm %s (serialization %s x transfer %s); useful avg %s max %s\n",
		pct(e.ParallelEff), pct(e.LoadBalance), pct(e.CommEff),
		pct(e.SerializationEff), pct(e.TransferEff),
		fsec(e.AvgUsefulSec), fsec(e.MaxUsefulSec))
}

// RenderRounds writes the per-round wait resolution when telemetry was
// attached (no-op otherwise).
func (r *Record) RenderRounds(w io.Writer) {
	if len(r.Rounds) == 0 {
		return
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "round\tend\twait\twait%\tdominant")
	for _, re := range r.Rounds {
		dom := "-"
		if re.Dominant != "" {
			dom = fmt.Sprintf("%s (%s)", re.Dominant, pct(re.DominantShare))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n",
			re.Round, fsec(re.TimeSec), fsec(re.WaitSec), pct(re.WaitFrac), dom)
	}
	tw.Flush()
}

// RenderComparison writes one row per record: the per-model efficiency
// comparison matchbench -analyze prints when several runs were analyzed.
func RenderComparison(w io.Writer, recs []*Record) {
	tw := newTab(w)
	fmt.Fprintln(tw, "model\tprocs\ttime\twait%\tpar eff\tload bal\tcomm eff\thops\tdominant wait")
	for _, r := range recs {
		if r == nil {
			continue
		}
		waitFrac := 0.0
		if r.TimeSec > 0 && r.Procs > 0 {
			waitFrac = r.TotalWaitSec / (r.TimeSec * float64(r.Procs))
		}
		dom := "-"
		for _, ws := range r.WaitStates {
			if !ws.Derived {
				dom = fmt.Sprintf("%s (%s)", ws.Class, pct(ws.Share))
				break
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\t%d\t%s\n",
			orDash(r.Model), r.Procs, fsec(r.TimeSec), pct(waitFrac),
			pct(r.Efficiency.ParallelEff), pct(r.Efficiency.LoadBalance),
			pct(r.Efficiency.CommEff), r.CriticalPath.Hops, dom)
	}
	tw.Flush()
}

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// sortByKindDesc orders activity names by their seconds, largest first,
// name as tiebreak.
func sortByKindDesc(kinds []string, sec map[string]float64) {
	for i := 1; i < len(kinds); i++ {
		for j := i; j > 0; j-- {
			a, b := kinds[j-1], kinds[j]
			if sec[b] > sec[a] || (sec[b] == sec[a] && b < a) {
				kinds[j-1], kinds[j] = b, a
			} else {
				break
			}
		}
	}
}

func causeList(causes []Cause, k int) string {
	if len(causes) == 0 {
		return "-"
	}
	if len(causes) > k {
		causes = causes[:k]
	}
	parts := make([]string, len(causes))
	for i, c := range causes {
		parts[i] = fmt.Sprintf("r%d %s", c.Rank, fsec(c.Seconds))
	}
	return strings.Join(parts, ", ")
}

// fsec renders virtual seconds with an auto-scaled unit.
func fsec(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.3fus", s*1e6)
	default:
		return fmt.Sprintf("%.1fns", s*1e9)
	}
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }

func nonZero(x float64) float64 {
	if x == 0 {
		return 1
	}
	return x
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
