package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/bfs"
	"repro/internal/coloring"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// sizes fixes every input dimension of the four workloads. full is the
// benchmark; tiny keeps every code path but finishes in a second or two
// a workload, for the package's own test.
type sizes struct {
	name string

	rggN, rggProcs int
	sbpN, sbpProcs int

	worldRanks, worldMatchRanks int
	ringRounds, ringReduces     int

	socialN, g500Scale, mixedProcs int
	traceEvents, roundLog          int
	harnessScale                   float64

	setupMaxReps, minIters int
}

var (
	full = sizes{name: "full",
		rggN: 800_000, rggProcs: 32,
		sbpN: 120_000, sbpProcs: 64,
		worldRanks: 16384, worldMatchRanks: 4096, ringRounds: 32, ringReduces: 8,
		socialN: 40_000, g500Scale: 14, mixedProcs: 32,
		traceEvents: 1 << 14, roundLog: 512, harnessScale: 0.5,
		setupMaxReps: 15, minIters: 5}
	tiny = sizes{name: "tiny",
		rggN: 6_000, rggProcs: 8,
		sbpN: 3_000, sbpProcs: 16,
		worldRanks: 512, worldMatchRanks: 256, ringRounds: 8, ringReduces: 2,
		socialN: 2_000, g500Scale: 9, mixedProcs: 8,
		traceEvents: 1 << 12, roundLog: 64, harnessScale: 0.25,
		setupMaxReps: 3, minIters: 2}
)

// deadline turns a simulated deadlock into a failed run, not a hang.
const deadline = 2 * time.Minute

func modelName(m matching.Model) string { return strings.ToLower(m.String()) }

func roundFlavor(m matching.Model) bool { return m.Flavor() == transport.FlavorRound }

// runDigest is what a run must reproduce bit for bit. Round-flavour
// models are deterministic in virtual time and every count; for the
// async flavour only the result is (their virtual time and record
// counts move a few percent run to run without any perturbation).
func runDigest(m matching.Model, result string, rep *mpi.Report, rounds int, records int64) string {
	if !roundFlavor(m) {
		return result
	}
	tot := rep.Totals()
	return fmt.Sprintf("%s vt=%016x rounds=%d records=%d bytes=%d coll=%d",
		result, bits(rep.MaxVirtualTime), rounds, records, tot.Bytes, tot.CollOps)
}

func hashInts(v []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// app times one application Run as a span of its layer. The wall time of
// the simulated world, which the Run reports about itself, becomes the
// span's child of layer "world".
func (r *recorder) app(name, layer string, run func() (*mpi.Report, error)) (seconds float64, err error) {
	seconds = r.span(name, layer, func() {
		var rep *mpi.Report
		if rep, err = run(); err == nil {
			r.tr.child("mpi.Run", "world", rep.Wall)
		}
	})
	return seconds, err
}

// match runs one half-approximate matching, verifies it against the
// serial reference, and records the run's layer timings and digest.
func (r *recorder) match(key string, g *graph.CSR, serial *matching.Result, opt matching.Options) *matching.ParallelResult {
	m := modelName(opt.Model)
	opt.Deadline = deadline
	var res *matching.ParallelResult
	run, err := r.app("matching.Run/"+m, "matching", func() (rep *mpi.Report, err error) {
		if res, err = matching.Run(g, opt); err == nil {
			rep = res.Report
		}
		return rep, err
	})
	if err != nil {
		r.verdict(key, err, "", 0)
		return nil
	}
	r.add("matching.verify_s", r.span("matching.Verify", "matching", func() { err = matching.Verify(g, res.Result) }))
	if err == nil && bits(res.Weight) != bits(serial.Weight) {
		err = fmt.Errorf("weight %v, serial %v", res.Weight, serial.Weight)
	}
	world := res.Report.Wall.Seconds()
	r.add("matching.run_s."+m, run)
	r.add("matching.world_s."+m, world)
	r.add("matching.host_prep_s."+m, run-world)
	r.add("virt_ms."+m, res.Report.MaxVirtualTime*1e3)
	if roundFlavor(opt.Model) {
		r.add("matching.rounds."+m, float64(res.Rounds))
		r.add("matching.records."+m, float64(res.Messages))
	}
	if opt.Model == matching.NCL {
		p := res.Report.Profile()
		r.add("virt_split_ms.compute", p.Compute*1e3)
		r.add("virt_split_ms.pack", p.Pack*1e3)
		r.add("virt_split_ms.exchange", p.Exchange*1e3)
		r.add("virt_split_ms.unpack", p.Unpack*1e3)
		r.add("virt_split_ms.wait", p.Wait*1e3)
	}
	result := fmt.Sprintf("w=%016x card=%d", bits(res.Weight), res.Cardinality)
	r.verdict(key, err, runDigest(opt.Model, result, res.Report, res.Rounds, res.Messages), res.Messages)
	return res
}

// --- rgg-sparse and sbp-dense ----------------------------------------------

// matchLoad is all seven models of half-approximate matching on one
// graph. On the RGG a strip partition leaves each rank two neighbours,
// so the matching kernel and the distribution dominate; on the SBP graph
// every rank neighbours every other, so the mailbox, the transports and
// the neighbourhood collectives do.
type matchLoad struct {
	sz     sizes
	dense  bool
	g      *graph.CSR
	serial *matching.Result
}

func (w *matchLoad) procs() int {
	if w.dense {
		return w.sz.sbpProcs
	}
	return w.sz.rggProcs
}

// generate times one generator call and the serial matching of its
// graph: the set-up of the three matching workloads.
func (r *recorder) generate(call, metric string, gen func() *graph.CSR) (g *graph.CSR, serial *matching.Result) {
	d := r.span(call, "gen", func() { g = gen() })
	r.add(metric, d)
	r.add("gen.edges_per_s", float64(g.NumEdges())/d)
	r.add("matching.serial_s", r.span("matching.Serial", "matching", func() { serial = matching.Serial(g) }))
	return g, serial
}

func rgg(n int, seed int64) *graph.CSR { return gen.RGG(n, gen.RGGRadiusForDegree(n, 8), seed) }

func (w *matchLoad) setup(seed int64, r *recorder) {
	w.g, w.serial = nil, nil // let the last repetition's graph go first
	if w.dense {
		n := w.sz.sbpN
		w.g, w.serial = r.generate("gen.SBP", "gen.sbp_s", func() *graph.CSR { return gen.SBP(n, n/150, 9, 0.6, seed) })
	} else {
		w.g, w.serial = r.generate("gen.RGG", "gen.rgg_s", func() *graph.CSR { return rgg(w.sz.rggN, seed) })
	}
}

func (w *matchLoad) iterate(r *recorder) {
	for _, m := range matching.Models {
		r.match("matching/"+modelName(m), w.g, w.serial, matching.Options{Procs: w.procs(), Model: m})
	}
}

func (w *matchLoad) layers(r *recorder) {
	graphLayers(r, w.g)
	distLayers(r, w.g, w.procs())
	r.add("matching.kernel_s", r.timed("matching.Run/procs=1", "matching", func() {
		if _, err := matching.Run(w.g, matching.Options{Procs: 1, Model: matching.NSR, Deadline: deadline}); err != nil {
			r.verdict("layers/kernel", err, "", 0)
		}
	}))
	if w.dense {
		transportLayers(r, w.g, w.procs())
		p2pLayers(r)
		nbrAlltoallvLayer(r, "mpi.nbr_alltoallv_ns_per_nbr.deg63", 64, 63, 40)
	}
}

// --- world-16k -------------------------------------------------------------

// worldLoad is the large-world pipeline: the kernel has four vertices a
// rank and does almost nothing, so host time is world set-up, scheduler
// park/unpark, topology creation and mailbox matching.
type worldLoad struct {
	sz     sizes
	g      *graph.CSR
	serial *matching.Result
}

func (w *worldLoad) setup(seed int64, r *recorder) {
	w.g, w.serial = r.generate("gen.RGG", "gen.rgg_s", func() *graph.CSR { return rgg(4*w.sz.worldMatchRanks, seed) })
}

// ring is the NSR-style skeleton: every rank sends right and receives
// from the left each round, with a scalar allreduce every few rounds.
func ring(ranks, rounds, reduces int, mode mpi.SchedMode) (*mpi.Report, error) {
	every := rounds / reduces
	return mpi.Run(ranks, func(c *mpi.Comm) error {
		me, n := c.Rank(), c.Size()
		for k := 0; k < rounds; k++ {
			c.Isend((me+1)%n, 0, []int64{int64(me), int64(k)})
			c.Recv((me+n-1)%n, 0)
			if k%every == every-1 {
				c.AllreduceScalarInt64(mpi.OpMax, int64(me))
			}
		}
		return nil
	}, mpi.WithScheduler(mode), mpi.WithDeadline(deadline))
}

func (w *worldLoad) iterate(r *recorder) {
	for _, mode := range []mpi.SchedMode{mpi.SchedWorkers, mpi.SchedDirect} {
		var rep *mpi.Report
		var err error
		d := r.span("mpi.Run/ring/"+mode.String(), "mpi", func() {
			rep, err = ring(w.sz.worldRanks, w.sz.ringRounds, w.sz.ringReduces, mode)
		})
		r.add("mpi.ring_s."+mode.String()+".16k", d)
		digest, msgs := "", int64(0)
		if err == nil {
			tot := rep.Totals()
			msgs = tot.P2PMsgs
			digest = fmt.Sprintf("vt=%016x msgs=%d coll=%d", bits(rep.MaxVirtualTime), tot.Msgs, tot.CollOps)
		}
		r.verdict("ring/"+mode.String(), err, digest, msgs)
	}
	for _, m := range []matching.Model{matching.NCL, matching.NSR} {
		r.match("matching/"+modelName(m), w.g, w.serial, matching.Options{Procs: w.sz.worldMatchRanks, Model: m})
	}
}

func (w *worldLoad) layers(r *recorder) {
	distLayers(r, w.g, w.sz.worldMatchRanks)
	worldLayers(r, w.sz.worldRanks)
}

// --- traced-mixed ----------------------------------------------------------

// mixedLoad drives the same runtime the other way: observers on (event
// rings, round logs), detected instead of counted termination, the
// level-synchronous BFS, colouring, and the post-mortem pipeline
// (analysis, Chrome export, harness records and their encoding).
type mixedLoad struct {
	sz        sizes
	social    *graph.CSR
	kron      *graph.CSR
	serial    *matching.Result
	colorHash uint64 // of the serial greedy colouring
	root      int
	levels    []int
}

func (w *mixedLoad) setup(seed int64, r *recorder) {
	d := r.span("gen.Social", "gen", func() { w.social = gen.Social(w.sz.socialN, 16, seed) })
	r.add("gen.social_s", d)
	edges := float64(w.social.NumEdges())
	d2 := r.span("gen.Graph500", "gen", func() { w.kron = gen.Graph500(w.sz.g500Scale, seed) })
	r.add("gen.graph500_s", d2)
	r.add("gen.edges_per_s", (edges+float64(w.kron.NumEdges()))/(d+d2))
	r.add("matching.serial_s", r.span("matching.Serial", "matching", func() { w.serial = matching.Serial(w.social) }))
	r.span("coloring.Serial", "coloring", func() { w.colorHash = hashInts(coloring.Serial(w.kron).Color) })
	// BFS starts from the first vertex that has an edge.
	for w.root = 0; w.kron.Degree(w.root) == 0; w.root++ {
	}
	w.levels = serialLevels(w.kron, w.root)
}

// serialLevels is the BFS reference bfs.Verify compares against.
func serialLevels(g *graph.CSR, root int) []int {
	level := make([]int, g.NumVertices())
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, int(u))
			}
		}
	}
	return level
}

// countWriter measures an encoding without keeping it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (w *mixedLoad) iterate(r *recorder) {
	p, ev, rl := w.sz.mixedProcs, w.sz.traceEvents, w.sz.roundLog

	for _, m := range []matching.Model{matching.NSR, matching.RMA, matching.NCL} {
		res := r.match("social/matching/"+modelName(m), w.social, w.serial,
			matching.Options{Procs: p, Model: m, TraceEvents: ev, RoundLog: rl})
		if res == nil {
			continue
		}
		var rec *analysis.Record
		var err error
		var m0, m1 runtime.MemStats
		if r.tr != nil {
			runtime.ReadMemStats(&m0)
		}
		d := r.span("analysis.Analyze/"+modelName(m), "analysis", func() {
			rec, err = analysis.Analyze(res.Report, analysis.Options{Model: m.String(), Telemetry: res.Telemetry})
		})
		if r.tr != nil {
			runtime.ReadMemStats(&m1)
			r.add("analysis.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
		if err == nil {
			r.add("analysis.analyze_s", d)
			r.add("analysis.events_per_s", float64(rec.Events)/d)
		}
		r.verdict("social/analysis/"+modelName(m), err, "", 0)
		// The Send-Recv run fills its event rings, so it is the export
		// worth timing; the round models log a few thousand events.
		if m == matching.NSR {
			var cw countWriter
			d := r.span("mpi.Report.WriteChromeTrace", "mpi", func() { err = res.Report.WriteChromeTrace(&cw) })
			r.add("mpi.chrome_export_s", d)
			if rec != nil {
				r.add("mpi.chrome_export_events_per_s", float64(rec.Events)/d)
			}
			r.verdict("social/chrome-export", err, "", 0)
		}
	}

	for _, m := range []matching.Model{matching.NSR, matching.NSRA} {
		var res *matching.ParallelResult
		d, err := r.app("matching.Run/maximal/"+modelName(m), "matching", func() (rep *mpi.Report, err error) {
			res, err = matching.Run(w.social, matching.Options{Procs: p, Model: m, Engine: matching.EngineMaximal,
				TraceEvents: ev, RoundLog: rl, Deadline: deadline})
			if err == nil {
				rep = res.Report
			}
			return rep, err
		})
		var records int64
		if err == nil {
			r.add("matching.maximal_s."+modelName(m), d)
			records = res.Messages
			r.span("matching.VerifyMaximal", "matching", func() { err = matching.VerifyMaximal(w.social, res.Result) })
		}
		// Which maximal matching emerges depends on the schedule, so
		// there is no digest: maximality is the contract.
		r.verdict("social/maximal/"+modelName(m), err, "", records)
	}

	for _, m := range []matching.Model{matching.NSR, matching.NCL} {
		var cres *coloring.ParallelResult
		d, err := r.app("coloring.Run/"+modelName(m), "coloring", func() (rep *mpi.Report, err error) {
			cres, err = coloring.Run(w.kron, coloring.Options{Procs: p, Model: m, TraceEvents: ev, RoundLog: rl, Deadline: deadline})
			if err == nil {
				rep = cres.Report
			}
			return rep, err
		})
		digest, records := "", int64(0)
		if err == nil {
			r.add("coloring.run_s."+modelName(m), d)
			records = cres.Messages
			r.span("coloring.Verify", "coloring", func() { err = coloring.Verify(w.kron, cres.Result) })
			hash := hashInts(cres.Color)
			if err == nil && hash != w.colorHash {
				err = fmt.Errorf("colouring differs from the serial greedy colouring")
			}
			result := fmt.Sprintf("colors=%d hash=%016x", cres.Colors, hash)
			digest = runDigest(m, result, cres.Report, cres.Rounds, cres.Messages)
		}
		r.verdict("kron/coloring/"+modelName(m), err, digest, records)

		var bres *bfs.Result
		d, err = r.app("bfs.Run/"+modelName(m), "bfs", func() (rep *mpi.Report, err error) {
			bres, err = bfs.Run(w.kron, w.root, bfs.Options{Procs: p, Model: m, TraceEvents: ev, RoundLog: rl, Deadline: deadline})
			if err == nil {
				rep = bres.Report
			}
			return rep, err
		})
		digest, records = "", 0
		if err == nil {
			r.add("bfs.run_s."+modelName(m), d)
			for _, pt := range bres.Telemetry.Points {
				records += pt.Req
			}
			r.span("bfs.Verify", "bfs", func() { err = bfs.Verify(w.kron, w.root, bres, w.levels) })
			result := fmt.Sprintf("levels=%d visited=%d hash=%016x", bres.Levels, bres.Visited, hashInts(bres.Level))
			digest = runDigest(m, result, bres.Report, bres.Levels, records)
		}
		r.verdict("kron/bfs/"+modelName(m), err, digest, records)
	}

	// The harness pipeline: one registry experiment with analysis and
	// round telemetry on, then the machine-readable document. Its graphs
	// come from the harness's own fixed seeds, not from -seed.
	cfg := harness.DefaultConfig()
	cfg.Scale, cfg.Analyze, cfg.TraceEvents, cfg.Rounds, cfg.Deadline = w.sz.harnessScale, true, ev, rl, deadline
	var launched []harness.RunInfo
	cfg.OnRun = func(info harness.RunInfo) { launched = append(launched, info) }
	var rec *harness.ExperimentRecord
	var err error
	r.add("harness.runonerecord_s", r.span("harness.RunOneRecord/fig4c", "harness", func() {
		rec, err = harness.RunOneRecord("fig4c", cfg, io.Discard)
	}))
	if err != nil {
		r.verdict("harness/fig4c", err, "", 0)
		return
	}
	for _, info := range launched {
		digest := ""
		if m, perr := transport.ParseModel(info.Model); perr == nil {
			digest = runDigest(m, "", info.Report, info.Rounds, info.Messages)
		}
		r.verdict("harness/"+info.Label, nil, digest, info.Messages)
	}
	var cw countWriter
	r.add("harness.encode_s", r.span("harness.Document.Write", "harness", func() {
		doc := harness.NewDocument("bench", cfg.Scale)
		doc.Add(rec)
		err = doc.Write(&cw)
	}))
	r.add("harness.encode_bytes", float64(cw.n))
	r.verdict("harness/encode", err, "", 0)
}
