package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/distgraph"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Layer timings: single public calls of one layer, timed from here and
// repeated layerReps times for a median. Every figure is host time. A
// world's fixed cost is taken out by timing the same world without the
// operation, so "ns per message" is the operation and not the set-up.
const layerReps = 3

// timed runs f layerReps times as spans of the layer and returns the
// median duration in seconds.
func (r *recorder) timed(name, layer string, f func()) float64 {
	ds := make([]float64, layerReps)
	for i := range ds {
		ds[i] = r.span(name, layer, f)
	}
	return median(ds)
}

// world times an mpi.Run of body; a failure is a failed layer run.
func (r *recorder) world(name string, ranks int, body func(c *mpi.Comm) error) float64 {
	return r.timed("mpi.Run/"+name, "mpi", func() {
		if _, err := mpi.Run(ranks, body, mpi.WithDeadline(deadline)); err != nil {
			r.verdict("layers/"+name, err, "", 0)
		}
	})
}

func graphLayers(r *recorder, g *graph.CSR) {
	edges := g.EdgeList()
	d := r.timed("graph.FromEdges", "graph", func() { graph.FromEdges(g.NumVertices(), edges) })
	r.add("graph.fromedges_s", d)
	r.add("graph.arcs_per_s", float64(g.NumArcs())/d)
}

func distLayers(r *recorder, g *graph.CSR, procs int) {
	var d *distgraph.Dist
	r.add("distgraph.newblockdist_s", r.timed("distgraph.NewBlockDist", "distgraph", func() { d = distgraph.NewBlockDist(g, procs) }))
	all := r.timed("distgraph.BuildLocal/all-ranks", "distgraph", func() {
		for rk := 0; rk < procs; rk++ {
			d.BuildLocal(rk)
		}
	})
	r.add("distgraph.buildlocal_s", all)
	r.add("distgraph.buildlocal_ns_per_arc", all*1e9/float64(g.NumArcs()))
}

// transportLayers is the per-backend benchmark: on the workload's own
// distribution every rank builds the backend, sends one record per cross
// arc for a few rounds, takes delivery into a counting handler, and
// releases it. Barriers fence the rounds, and rank 0 reads the clock at
// them, so set-up and per-record cost come from the same world.
func transportLayers(r *recorder, g *graph.CSR, procs int) {
	const rounds = 2
	type arc struct{ dst, x, y int32 }
	d := distgraph.NewBlockDist(g, procs)
	locals := make([]*distgraph.Local, procs)
	cross := make([][]arc, procs)
	var total int64
	for rk := range locals {
		l := d.BuildLocal(rk)
		locals[rk] = l
		for v := l.Lo; v < l.Hi; v++ {
			for _, u := range g.Neighbors(v) {
				if q := l.Owner(int(u)); q != rk {
					cross[rk] = append(cross[rk], arc{int32(q), u, int32(v)})
				}
			}
		}
		total += int64(len(cross[rk]))
	}
	for _, m := range transport.Models {
		name := "transport." + modelName(m)
		delivered := make([]int64, procs)
		setup, exchange := make([]float64, 0, layerReps), make([]float64, 0, layerReps)
		r.world(name, procs, func(c *mpi.Comm) error {
			start := time.Now()
			t, err := transport.New(m, transport.Deps{Comm: c, Local: locals[c.Rank()], MaxPerArc: rounds})
			if err != nil {
				return err
			}
			c.Barrier()
			built := time.Now()
			mine, got := cross[c.Rank()], int64(0)
			count := func(ctx, x, y int64) { got++ }
			for k := 0; k < rounds; k++ {
				for _, a := range mine {
					t.Send(int(a.dst), 1, int64(a.x), int64(a.y))
				}
				if rt, ok := t.(transport.Round); ok {
					rt.Exchange(count)
				}
			}
			// The graph is symmetric: a rank is owed as many records as
			// it sent.
			if at, ok := t.(transport.Async); ok {
				for got < int64(rounds*len(mine)) {
					if !at.Drain(count) {
						at.Block()
					}
				}
			}
			t.Finish() // a rank that is done still owes its parked batches
			c.Barrier()
			if c.Rank() == 0 {
				setup = append(setup, built.Sub(start).Seconds())
				exchange = append(exchange, time.Since(built).Seconds())
			}
			transport.Release(t)
			delivered[c.Rank()] = got
			return nil
		})
		want := rounds * total
		if m == transport.ModelNCLI {
			want -= total // the pipelined backend's last round is still in flight at Finish
		}
		var got int64
		for _, n := range delivered {
			got += n
		}
		var err error
		if got != want {
			err = fmt.Errorf("delivered %d records, want %d", got, want)
		}
		r.verdict("layers/"+name, err, "", 0)
		r.add(name+".setup_s", median(setup))
		r.add(name+".records", float64(rounds*total))
		r.add(name+".ns_per_record", median(exchange)*1e9/float64(rounds*total))
	}
}

// p2pLayers times the point-to-point paths the Send-Recv drivers lean
// on: a blocking round trip, a wildcard fan-in, and a probe that misses
// behind a backlog.
func p2pLayers(r *recorder) {
	const trips = 5000
	d := r.world("pingpong", 2, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		for k := 0; k < trips; k++ {
			if c.Rank() == 0 {
				c.Isend(peer, 0, []int64{int64(k)})
				c.Recv(peer, 0)
			} else {
				c.Recv(peer, 0)
				c.Isend(peer, 0, []int64{int64(k)})
			}
		}
		return nil
	})
	r.add("mpi.pingpong_ns_per_msg", d*1e9/(2*trips))

	const senders, each = 64, 256
	d = r.world("fanin", senders+1, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			for k := 0; k < each; k++ {
				c.Isend(0, 3, []int64{int64(c.Rank()), int64(k)})
			}
			return nil
		}
		for k := 0; k < senders*each; k++ {
			c.Recv(mpi.AnySource, 3)
		}
		return nil
	})
	r.add("mpi.fanin_anysource_ns_per_msg.64", d*1e9/(senders*each))

	const backlog, misses = 1024, 1 << 16
	probe := func(n int) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for k := 0; k < backlog; k++ {
					c.Isend(1, 1, []int64{int64(k)})
				}
				c.Barrier()
				return nil
			}
			c.Barrier()
			for k := 0; k < n; k++ {
				if ok, _ := c.Iprobe(0, 2); ok {
					return fmt.Errorf("probe for an absent tag hit")
				}
			}
			for k := 0; k < backlog; k++ {
				c.Recv(0, 1)
			}
			return nil
		}
	}
	base := r.world("iprobe-miss/backlog-only", 2, probe(0))
	d = r.world("iprobe-miss", 2, probe(misses))
	r.add("mpi.iprobe_miss_ns", (d-base)*1e9/misses)
}

// nbrAlltoallvLayer times rounds of NeighborAlltoallv on a topology of
// the given degree (2: a ring; ranks-1: complete) against the world that
// only creates the topology, whose duration it returns.
func nbrAlltoallvLayer(r *recorder, metricName string, ranks, deg, rounds int) float64 {
	body := func(rounds int) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			me, n := c.Rank(), c.Size()
			var nbrs []int
			if deg == 2 {
				nbrs = []int{(me + n - 1) % n, (me + 1) % n}
			} else {
				for q := 0; q < n; q++ {
					if q != me {
						nbrs = append(nbrs, q)
					}
				}
			}
			topo := c.CreateGraphTopo(nbrs)
			send := make([][]int64, len(nbrs))
			for i := range send {
				send[i] = []int64{int64(me), 1, 2, 3}
			}
			for k := 0; k < rounds; k++ {
				topo.NeighborAlltoallvInt64(send)
			}
			return nil
		}
	}
	name := fmt.Sprintf("nbr-alltoallv/deg%d", deg)
	base := r.world(name+"/topo-only", ranks, body(0))
	d := r.world(name, ranks, body(rounds))
	r.add(metricName, (d-base)*1e9/float64(rounds*ranks*deg))
	return base
}

// worldLayers times what a large world costs before any application
// runs in it: construction, one allreduce per rank, topology creation,
// and the heap a live world holds.
func worldLayers(r *recorder, ranks int) {
	empty := r.world("empty", ranks, func(c *mpi.Comm) error { return nil })
	r.add("mpi.world_setup_s.16k", empty)

	const reduces = 16
	d := r.world("allreduce", ranks, func(c *mpi.Comm) error {
		for k := 0; k < reduces; k++ {
			c.AllreduceScalarInt64(mpi.OpMax, int64(c.Rank()))
		}
		return nil
	})
	r.add("mpi.allreduce_ns_per_rank.16k", (d-empty)*1e9/float64(reduces*ranks))

	topo := nbrAlltoallvLayer(r, "mpi.nbr_alltoallv_ns_per_nbr.deg2", ranks, 2, 8)
	r.add("mpi.topo_create_s.16k", topo-empty)

	const puts = 20000
	d = r.world("rma-put-flush", 2, func(c *mpi.Comm) error {
		win := c.WinCreate(1 << 12)
		data := make([]int64, 16)
		if c.Rank() == 0 {
			for k := 0; k < puts; k++ {
				win.Put(1, (k*16)%(1<<12-16), data)
				if k%10 == 9 {
					win.FlushAll()
				}
			}
		}
		c.Barrier()
		win.Free()
		return nil
	})
	r.add("mpi.rma_put_flush_ns_per_put", d*1e9/puts)

	// Two collections empty the runtime's world pool, so the difference
	// is what one live world of this size holds.
	var before, live runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := mpi.Run(ranks, func(c *mpi.Comm) error {
		c.Barrier()
		if c.Rank() == 0 {
			runtime.GC()
			runtime.ReadMemStats(&live)
		}
		c.Barrier()
		return nil
	}, mpi.WithDeadline(deadline))
	r.verdict("layers/heap", err, "", 0)
	r.add("mpi.heap_bytes_per_rank.16k", (float64(live.HeapAlloc)-float64(before.HeapAlloc))/float64(ranks))
}

// layers times the observers and the detector on their own.
func (w *mixedLoad) layers(r *recorder) {
	graphLayers(r, w.kron)

	// Merging the round logs of a 32-rank, 512-round run.
	const ranks, rounds = 32, 512
	logs := make([]*telemetry.RoundLog, ranks)
	vol := make([]int64, ranks)
	for i := range logs {
		logs[i] = telemetry.NewRoundLog(rounds, ranks)
		logs[i].SetTotal(1000)
		for k := 0; k < rounds; k++ {
			vol[(i+k)%ranks] += 24
			logs[i].Append(float64(k), int64(rounds-k), int64(k), int64(3*k), int64(k), int64(k/2), 64, vol)
		}
	}
	r.add("telemetry.merge_s", r.timed("telemetry.Merge", "telemetry", func() { telemetry.Merge(logs) }))

	// What event tracing costs the simulated run itself.
	ncl := func(events int) float64 {
		return r.timed(fmt.Sprintf("matching.Run/ncl/events=%d", events), "matching", func() {
			opt := matching.Options{Procs: w.sz.mixedProcs, Model: matching.NCL, TraceEvents: events, Deadline: deadline}
			if _, err := matching.Run(w.social, opt); err != nil {
				r.verdict("layers/trace-overhead", err, "", 0)
			}
		})
	}
	r.add("mpi.trace_overhead_frac", ncl(w.sz.traceEvents)/ncl(0)-1)

	// Safra detection with no application traffic: the token's circuits.
	const detections = 8
	d := r.world("quiesce", 64, func(c *mpi.Comm) error {
		for k := 0; k < detections; k++ {
			mpi.NewQuiesce(c).Quiesce()
		}
		return nil
	})
	r.add("mpi.quiesce_detect_s.64", d/detections)
}
