package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/matching"
)

// densityInput is one point of the process-graph density sweep.
type densityInput struct {
	Name string
	Band int
	G    *graph.CSR
}

// bandedBlockGraph builds a graph whose block distribution over p ranks
// yields a ring-banded process graph of degree exactly min(2*band, p-1):
// each vertex draws deg edges to uniform vertices in blocks at ring
// distance <= band from its own. Unlike an SBP overlap fraction — whose
// scattered cross edges cover every block pair almost immediately — the
// band directly dials the process-graph density, independent of graph
// size, which is the axis this sweep varies.
func bandedBlockGraph(n, p, deg, band int, seed int64) *graph.CSR {
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	per := n / p // n is a multiple of p, matching NewBlockDist's partition
	for v := 0; v < n; v++ {
		blk := v / per
		for e := 0; e < deg; e++ {
			tb := ((blk+r.Intn(2*band+1)-band)%p + p) % p // band may exceed p
			u := tb*per + r.Intn(per)
			if u == v {
				continue
			}
			b.AddEdge(v, u, 1+10*r.Float64())
		}
	}
	return b.Build()
}

// densitySweep builds banded inputs whose process graph sweeps from a
// sparse ring neighborhood (degree 2) to near-complete (degree p-1) —
// the axis along which the paper's Fig 4c conclusion flips. Vertices
// and per-vertex degree are held fixed so only the process-graph
// density moves.
func (c Config) densitySweep(p int) []densityInput {
	var out []densityInput
	// The ladder is fixed (not derived from p) so row names are stable
	// across harness scales; bands past (p-1)/2 wrap the ring and simply
	// saturate at a complete process graph.
	for _, band := range []int{1, 2, 3, 5, 8} {
		band := band
		name := fmt.Sprintf("density-b%d", band)
		g := c.memo(fmt.Sprintf("%s-%d", name, p), func() *graph.CSR {
			return bandedBlockGraph(c.scaled(250)*p, p, 10, band, 7007+int64(band))
		})
		out = append(out, densityInput{Name: name, Band: band, G: g})
	}
	return out
}

func init() {
	register(&Experiment{
		ID:    "ext-density",
		Title: "Extension: message-combining collectives across process-graph density (NCL vs NCLC crossover)",
		Paper: "beyond the paper — §V-B/Fig 4c shows NCL degrading as the process graph densifies (one transfer per neighbor); NCLC routes O(log p) combined bundles instead, so its advantage should appear exactly where NCL's conclusion flips",
		Run: func(cfg Config) ([]*Table, error) {
			p := cfg.scaledProcs(16)
			models := []matching.Model{matching.NSR, matching.NCL, matching.NCLC}
			t := &Table{ID: "ext-density", Title: fmt.Sprintf("process-graph density sweep on %d processes (ring-banded blocks)", p),
				Headers: []string{"input", "davg", "dmax", "NSR", "NCL", "NCLC", "NCLC/NCL"}}
			for _, in := range cfg.densitySweep(p) {
				st := distgraph.NewBlockDist(in.G, p).ProcessGraphStats()
				reps, err := cfg.sweep("ext-density", in.Name, in.G, p, models)
				if err != nil {
					return nil, err
				}
				nsr, ncl, nclc := reps[0].MaxVirtualTime, reps[1].MaxVirtualTime, reps[2].MaxVirtualTime
				t.AddRow(in.Name, f2(st.DAvg), fmt.Sprint(st.DMax), ms(nsr), ms(ncl), ms(nclc), speedup(ncl, nclc))
			}
			t.Notes = append(t.Notes,
				"expected shape: NCLC tracks NCL on sparse rows (direct fallback), then beats it once davg clears ~1.5*ceil(log2 p)",
				"expected shape: the NCLC/NCL speedup grows with the band")
			return []*Table{t}, nil
		},
	})
}
