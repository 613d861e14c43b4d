// Package bfs implements a Graph500-style distributed breadth-first
// search over the same 1-D vertex-block distribution as the matching
// code. The paper uses BFS as the communication-pattern foil for
// matching (Figs 2 and 11): BFS is level-synchronous with bulk frontier
// expansion, whereas matching generates dynamic, unpredictable
// point-to-point traffic. This package regenerates the BFS side of those
// communication matrices, and — like matching and coloring — runs its
// frontier exchange over any of the transport communication models.
package bfs

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// maxVisitsPerCrossArc sizes the round backends' buffers: the driver
// quiesces every level (no rank expands level L+1 until all level-L
// visit records are delivered, enforced by the in-flight reduction), so
// each cross arc carries at most one visit record per exchange round.
const maxVisitsPerCrossArc = 1

// Options configures a distributed BFS run: exactly the knobs every
// application shares. Model selects what carries the cross-edge frontier
// expansions; the zero value is ModelNSR, per-edge nonblocking sends as
// in the Graph500 reference MPI implementation the paper profiles.
// Neighborhood models batch per neighbor over the distributed graph
// topology — the approach Kandalla et al. study for BFS (the paper's
// ref [22]).
type Options = driver.Options

// Result is the outcome of a BFS.
type Result struct {
	// Parent[v] is v's BFS tree parent, v itself for the root, or -1 if
	// unreached.
	Parent []int
	// Level[v] is v's BFS level, or -1 if unreached.
	Level []int
	// Visited is the number of reached vertices.
	Visited int
	// Levels is the number of BFS levels (eccentricity of the root + 1).
	Levels int
	// Outcome's Rounds counts the levels too. Its Telemetry rows are
	// per level: Unresolved is the frontier size entering the next
	// level, Done the visited count, and Req the cross-edge visit
	// records; Rej and Inv are always zero.
	*driver.Outcome
}

// Run executes a level-synchronous distributed BFS from root. Cross-edge
// frontier expansions travel as transport records {level, child, parent}
// over the selected communication model; a global reduction over
// [next-frontier size, records in flight] both decides termination and
// fences each level, so levels are exact under every model — including
// the pipelined and combining collectives, whose records may arrive an
// exchange late or routed through intermediate ranks. The child's level
// rides in the record's ctx slot (it doubles as the message tag on the
// point-to-point paths), and expansion reads each vertex's stored level
// rather than a loop counter, so a late-delivered visit still assigns
// and propagates the exact distance.
func Run(g *graph.CSR, root int, opt Options) (*Result, error) {
	if root < 0 || root >= g.NumVertices() {
		return nil, fmt.Errorf("bfs: root %d out of range", root)
	}
	parentGlobal := make([]int64, g.NumVertices())
	levelGlobal := make([]int64, g.NumVertices())

	out, err := driver.Run(g, opt, driver.Protocol{App: "bfs", MaxPerArc: maxVisitsPerCrossArc}, func(r *driver.Rank) error {
		c, l, bk := r.Comm, r.Local, r.Backend
		nOwned := l.NumOwned()
		parent := make([]int64, nOwned)
		level := make([]int64, nOwned)
		queued := make([]bool, nOwned)
		for i := range parent {
			parent[i] = -1
			level[i] = -1
		}
		c.AccountAlloc(int64(nOwned) * 17)

		// Per-level telemetry counts cross-edge visit records in the
		// request slot.
		var sent, recvd, visited int64
		frontier := make([]int32, 0, nOwned)
		next := make([]int32, 0, nOwned)
		visit := func(v, from, lvl int64) {
			vi := int(v) - l.Lo
			if parent[vi] != -1 && level[vi] <= lvl {
				return
			}
			if parent[vi] == -1 {
				visited++
			}
			parent[vi] = from
			level[vi] = lvl
			if !queued[vi] {
				queued[vi] = true
				next = append(next, int32(vi))
			}
		}
		handler := func(ctx, x, y int64) {
			recvd++
			c.Compute(1)
			visit(x, y, ctx)
		}
		if l.Owns(root) {
			visit(int64(root), int64(root), 0)
		}
		frontier, next = next, frontier[:0]
		r.Record(int64(len(frontier)), visited, sent, 0, 0)

		for {
			// Expand the frontier: local visits immediately, cross edges
			// as one record each, at the stored level of the expanding
			// vertex.
			for _, vi := range frontier {
				queued[vi] = false
				childLvl := level[vi] + 1
				v := int64(int(vi) + l.Lo)
				for _, a := range g.Neighbors(int(vi) + l.Lo) {
					c.Compute(1)
					u := int64(a)
					if l.Owns(int(u)) {
						visit(u, v, childLvl)
						continue
					}
					sent++
					bk.Send(l.Owner(int(u)), childLvl, u, v)
				}
			}
			// Fence the level: pump until no visit record is in flight
			// anywhere (parked in a batch, staged for an exchange, or
			// pipelined into the next round), then advance together.
			var nextTotal int64
			for {
				driver.Pump(bk, handler)
				st := c.AllreduceInt64(mpi.OpSum, []int64{int64(len(next)), sent - recvd})
				if st[1] == 0 {
					nextTotal = st[0]
					break
				}
			}
			frontier, next = next, frontier[:0]
			r.Record(int64(len(frontier)), visited, sent, 0, 0)
			r.Rounds++
			if nextTotal == 0 {
				break
			}
		}
		bk.Finish()
		copy(parentGlobal[l.Lo:l.Hi], parent)
		copy(levelGlobal[l.Lo:l.Hi], level)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Parent:  make([]int, len(parentGlobal)),
		Level:   make([]int, len(levelGlobal)),
		Outcome: out,
	}
	for v := range parentGlobal {
		res.Parent[v] = int(parentGlobal[v])
		res.Level[v] = int(levelGlobal[v])
		if res.Level[v] >= 0 {
			res.Visited++
			if res.Level[v]+1 > res.Levels {
				res.Levels = res.Level[v] + 1
			}
		}
	}
	return res, nil
}

// Verify checks BFS tree invariants: the root is its own parent at level
// 0; every other reached vertex has a reached parent one level shallower
// connected by a real edge; level assignments are exactly the true BFS
// distances (compared against the serial levels the caller provides).
func Verify(g *graph.CSR, root int, r *Result, serialLevels []int) error {
	if r.Parent[root] != root || r.Level[root] != 0 {
		return fmt.Errorf("bfs: root parent/level = %d/%d", r.Parent[root], r.Level[root])
	}
	for v := range r.Parent {
		switch {
		case r.Level[v] < 0:
			if r.Parent[v] != -1 {
				return fmt.Errorf("bfs: unreached vertex %d has parent %d", v, r.Parent[v])
			}
		case v != root:
			p := r.Parent[v]
			if p < 0 || p >= len(r.Parent) {
				return fmt.Errorf("bfs: vertex %d has bad parent %d", v, p)
			}
			if !g.HasEdge(v, p) {
				return fmt.Errorf("bfs: tree edge {%d,%d} not in graph", v, p)
			}
			if r.Level[p] != r.Level[v]-1 {
				return fmt.Errorf("bfs: vertex %d at level %d has parent at level %d", v, r.Level[v], r.Level[p])
			}
		}
		if serialLevels != nil && r.Level[v] != serialLevels[v] {
			return fmt.Errorf("bfs: vertex %d level %d, serial BFS says %d", v, r.Level[v], serialLevels[v])
		}
	}
	return nil
}
