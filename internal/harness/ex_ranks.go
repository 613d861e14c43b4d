package harness

import (
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/gen"
	"repro/internal/matching"
	"repro/internal/mpi"
)

// The rank-count scaling experiment is not a paper artifact: it
// characterizes the simulation harness itself. The paper's clusters run
// 512-16K MPI ranks; this experiment shows the simulated runtime
// sustaining the same rank counts (and beyond) on one machine, which is
// what lets the weak-scaling experiments keep the paper's process
// counts instead of shrinking them. Each row launches two workloads at
// world size p:
//
//   - ring: a raw mpi.Run world doing a 4-round neighbor ring exchange
//     plus a scalar allreduce — the NSR-style p2p skeleton, measuring
//     pure runtime overhead;
//   - NCL match: a full half-approximate matching run under the NCL
//     model on a weak-scaled RGG strip (ranksVPR vertices per rank), the
//     lightest per-rank real workload.
//
// Wall-clock columns are physical seconds of the simulation; virtual
// time is the modeled result as everywhere else.

// ranksLadder is the world-size sweep; Config.Ranks caps it.
var ranksLadder = []int{1024, 4096, 16384, 65536, 131072}

// ranksDefaultCap keeps the default sweep CI-sized; -ranks 131072 (or
// Config.Ranks) unlocks the full curve.
const ranksDefaultCap = 16384

// ranksMaxCap is the largest cap the experiment accepts; a ring needs at
// least two ranks.
const ranksMaxCap = 1 << 20

// ranksVPR is the vertices-per-rank density of the matching workload.
const ranksVPR = 4

func (c Config) ranksRing(p int) (*mpi.Report, time.Duration, error) {
	start := time.Now()
	rep, err := mpi.Run(p, func(cm *mpi.Comm) error {
		r, n := cm.Rank(), cm.Size()
		for k := 0; k < 4; k++ {
			cm.Isend((r+1)%n, 0, []int64{int64(r), int64(k)})
			cm.Recv((r+n-1)%n, 0)
		}
		cm.AllreduceScalarInt64(mpi.OpMax, int64(r))
		return nil
	}, c.runOptions(p).MPIOptions()...)
	return rep, time.Since(start), err
}

func init() {
	register(&Experiment{
		ID:    "ranks",
		Title: "Rank-count scaling of the simulated runtime",
		Paper: "harness artifact, not a paper figure: the paper's evaluation spans 512-16K MPI ranks; the runtime sustains those world sizes in simulation (131K with -ranks 131072)",
		Run: func(cfg Config) ([]*Table, error) {
			rcap := cfg.Ranks
			if rcap == 0 {
				rcap = ranksDefaultCap
			}
			if rcap < 2 || rcap > ranksMaxCap {
				return nil, fmt.Errorf("rank-count cap (-ranks) %d out of range (want 0 or 2..%d)", rcap, ranksMaxCap)
			}
			var sizes []int
			for _, p := range ranksLadder {
				if p <= rcap {
					sizes = append(sizes, p)
				}
			}
			if len(sizes) == 0 {
				// Cap below the smallest rung: run that single size so the
				// table is never empty (and tests stay cheap).
				sizes = []int{rcap}
			}
			t := &Table{ID: "ranks", Title: "world-size scaling (wall = physical simulation time)",
				Headers: []string{"ranks", "ring-wall", "ring-msgs", "ncl-wall", "ncl-virt", "rounds"}}
			for _, p := range sizes {
				cfg.logf("ranks: p=%d ring", p)
				rep, wall, err := cfg.ranksRing(p)
				if err != nil {
					return nil, fmt.Errorf("p=%d ring: %w", p, err)
				}
				cfg.observe(fmt.Sprintf("ring p=%d", p), "ring", "ring", "nsr-skeleton", nil, p, &driver.Outcome{Report: rep})
				// The rung's graph is its own, so it is built here, not in
				// the session's workload cache: it goes when the rung ends,
				// and with it what the runs keep in its memo (distribution,
				// views, indexes, Start logs).
				n := ranksVPR * p
				g := gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 7001+int64(p))
				cfg.logf("ranks: p=%d NCL matching |V|=%d", p, g.NumVertices())
				mstart := time.Now()
				res, err := cfg.match("ranks-rgg", g, p, matching.NCL, false)
				if err != nil {
					return nil, fmt.Errorf("p=%d NCL match: %w", p, err)
				}
				mwall := time.Since(mstart)
				tot := rep.Totals()
				t.AddRow(fmt.Sprint(p),
					wall.Round(time.Millisecond).String(),
					fmt.Sprint(tot.Msgs),
					mwall.Round(time.Millisecond).String(),
					ms(res.Report.MaxVirtualTime),
					fmt.Sprint(res.Rounds))
			}
			t.Notes = append(t.Notes,
				"expected shape: ring wall-clock grows near-linearly in ranks (flat per-rank cost)",
				fmt.Sprintf("ladder capped at %d ranks (matchbench -ranks 131072 for the full curve)", rcap))
			return []*Table{t}, nil
		},
	})
}
