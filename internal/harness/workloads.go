package harness

import (
	"fmt"
	"sync"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Workload generation. Sizes are laptop-scale stand-ins for the paper's
// Table II inputs, preserving each family's structural character (see
// DESIGN.md §2). A process count that was 512-16K on Cori maps to 8-64
// simulated ranks here.
//
// Generated graphs are memoized per (name, scale) because several
// experiments share inputs.

var (
	wlMu    sync.Mutex
	wlCache = map[string]*graph.CSR{}
)

func (c Config) memo(name string, build func() *graph.CSR) *graph.CSR {
	key := fmt.Sprintf("%s@%g", name, c.Scale)
	wlMu.Lock()
	g, ok := wlCache[key]
	wlMu.Unlock()
	if ok {
		return g
	}
	g = build()
	wlMu.Lock()
	wlCache[key] = g
	wlMu.Unlock()
	return g
}

// rggWeak returns the weak-scaling RGG input for p ranks: vertices grow
// linearly with p and the x-sorted strip ordering bounds every rank's
// process neighborhood to <= 2 (paper Fig 4a).
func (c Config) rggWeak(p int) *graph.CSR {
	return c.memo(fmt.Sprintf("rgg-weak-%d", p), func() *graph.CSR {
		n := c.scaled(3000) * p
		return gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 1001+int64(p))
	})
}

// rmatWeak returns the weak-scaling Graph500 R-MAT input for p ranks:
// edge count doubles with p as in the paper's scale-21..24 sweep.
func (c Config) rmatWeak(p int) *graph.CSR {
	return c.memo(fmt.Sprintf("rmat-weak-%d", p), func() *graph.CSR {
		// Volume matters: the paper's scale-21..24 inputs carry ~65K
		// edges per rank, enough for aggregation to pay; keep that
		// per-rank density at our reduced process counts.
		scale := 13
		for q := 8; q < p; q *= 2 {
			scale++
		}
		if c.Scale >= 2 {
			scale++
		} else if c.Scale <= 0.5 {
			scale -= 2
		} else if c.Scale < 1 {
			scale--
		}
		return gen.Graph500(scale, 2002+int64(p))
	})
}

// sbpWeak returns the weak-scaling stochastic-block-partition (HILO)
// input for p ranks: high overlap across many small blocks, the family
// whose near-complete process graph favors Send-Recv (paper Fig 4c).
func (c Config) sbpWeak(p int) *graph.CSR {
	return c.memo(fmt.Sprintf("sbp-weak-%d", p), func() *graph.CSR {
		// Thin per-rank volume: with a near-complete process graph and
		// few records per neighbor per round, the per-neighbor cost of
		// the blocking collectives dominates and Send-Recv wins, the
		// regime of the paper's Fig 4c.
		n := c.scaled(700) * p
		return gen.SBP(n, max(1, n/150), 9, 0.6, 3003+int64(p))
	})
}

// kmerInputs returns the four protein k-mer analogues in the paper's
// Fig 5 size order (V2a < U1a < P1a < V1r).
func (c Config) kmerInputs() []struct {
	Name string
	G    *graph.CSR
} {
	// K-mer vertex ids come from hashing, so the grids are scattered
	// across the id space: scramble the component-local numbering to
	// reproduce the heavy cross-rank traffic the paper observes. Sizes
	// follow the paper's V2a < U1a < P1a < V1r progression (117M, 139M,
	// 298M, 465M edges, scaled down ~1000x).
	mk := func(name string, comps, lo, hi int, seed int64) struct {
		Name string
		G    *graph.CSR
	} {
		return struct {
			Name string
			G    *graph.CSR
		}{name, c.memo("kmer-"+name, func() *graph.CSR {
			g := gen.KMerGrids(c.scaled(comps), lo, hi, seed)
			s, _ := gen.Scramble(g, seed^0x9e37)
			return s
		})}
	}
	return []struct {
		Name string
		G    *graph.CSR
	}{
		mk("V2a", 1400, 5, 9, 41),
		mk("U1a", 1700, 5, 9, 42),
		mk("P1a", 3500, 5, 9, 43),
		mk("V1r", 5500, 5, 9, 44),
	}
}

// orkut returns the moderate social-network analogue (Orkut: 117M edges
// in the paper; heavy-tailed community graph here).
func (c Config) orkut() *graph.CSR {
	return c.memo("orkut", func() *graph.CSR {
		n := c.scaled(24000)
		return gen.Social(n, 12, 51)
	})
}

// friendster returns the large social-network analogue (Friendster:
// 1.8B edges in the paper).
func (c Config) friendster() *graph.CSR {
	return c.memo("friendster", func() *graph.CSR {
		n := c.scaled(80000)
		return gen.Social(n, 10, 52)
	})
}

// cage15 returns the DNA-electrophoresis mesh analogue in its "original"
// vertex order: rows grouped by degree, as matrix collections tend to
// deliver them — bandwidth is poor and per-block work is skewed until
// RCM repairs both.
func (c Config) cage15() *graph.CSR {
	return c.memo("cage15", func() *graph.CSR {
		mesh := gen.BandedMesh(c.scaled(30000), 24, 2.5, 0.002, 61)
		return gen.OrderByDegree(mesh)
	})
}

// hv15r returns the CFD mesh analogue (HV15R: denser rows than cage15),
// also in degree-grouped "original" order.
func (c Config) hv15r() *graph.CSR {
	return c.memo("hv15r", func() *graph.CSR {
		mesh := gen.BandedMesh(c.scaled(36000), 48, 5, 0.001, 63)
		return gen.OrderByDegree(mesh)
	})
}

// profileInputs returns the (name, graph) set for the Fig 10 performance
// profiles: a cross-section of every family at modest size.
func (c Config) profileInputs() []struct {
	Name string
	G    *graph.CSR
} {
	type ng = struct {
		Name string
		G    *graph.CSR
	}
	out := []ng{}
	add := func(name string, build func() *graph.CSR) {
		out = append(out, ng{name, c.memo("profile-"+name, build)})
	}
	add("rgg", func() *graph.CSR {
		n := c.scaled(48000)
		return gen.RGG(n, gen.RGGRadiusForDegree(n, 8), 71)
	})
	add("rmat", func() *graph.CSR {
		sc := 14
		if c.Scale < 0.5 {
			sc = 11
		}
		return gen.Graph500(sc, 72)
	})
	add("sbp", func() *graph.CSR { n := c.scaled(12000); return gen.SBP(n, n/150, 14, 0.5, 73) })
	add("kmer", func() *graph.CSR {
		g := gen.KMerGrids(c.scaled(2500), 5, 9, 74)
		s, _ := gen.Scramble(g, 77)
		return s
	})
	add("social", func() *graph.CSR { return gen.Social(c.scaled(50000), 10, 75) })
	add("banded", func() *graph.CSR { return gen.BandedMesh(c.scaled(40000), 32, 3, 0.002, 76) })
	return out
}
