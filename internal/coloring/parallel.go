package coloring

import (
	"fmt"

	"repro/internal/distgraph"
	"repro/internal/driver"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Model aliases the matching package's communication models so both
// owner-computes applications share one vocabulary (NSR, RMA, NCL, MBP,
// NCLI).
type Model = matching.Model

// Options configures a distributed coloring run: exactly the knobs
// every application shares.
type Options = driver.Options

// ParallelResult is the outcome of a distributed coloring: the colors
// and the driver's Outcome. Its Telemetry rows count color
// announcements in Req; Rej and Inv are always zero for
// Jones-Plassmann.
type ParallelResult struct {
	*Result
	*driver.Outcome
}

// ctxColor announces "vertex y (mine) adjacent to your x is colored c";
// the color rides in the record's y word below the sender's vertex, and
// the x word carries y's position in x's row beside x
// (transport.PackTarget) — records are {ctx, pos<<32 | x,
// y<<colorShift | color}.
const (
	ctxColor   int64 = 1
	colorShift       = 24 // colors < 2^24; vertex ids shifted above
)

// maxMessagesPerCrossArc: each side announces its endpoint's color on a
// cross arc exactly once.
const maxMessagesPerCrossArc = 1

// jpEngine holds one rank's Jones-Plassmann state; a driver.Kernel.
type jpEngine struct {
	c  *mpi.Comm
	l  *distgraph.Local
	g  *graph.CSR
	tr transport.Sender

	lo, hi    int
	color     []int32 // owned vertices; -1 uncolored
	waitCount []int32 // uncolored higher-priority neighbors remaining
	ghostCol  []int32 // per local arc: far endpoint's color, -1 unknown
	mirror    []int32 // the graph's Mirror over the rank's arcs
	arcBase   int64

	pendingArcs int64 // cross arcs whose announcement we have not received
	work        []int32
	sent        int64
	ncolored    int64 // owned vertices colored so far
}

func newJPEngine(c *mpi.Comm, l *distgraph.Local, tr transport.Sender, mirror []int32) *jpEngine {
	g := l.Graph()
	nOwned := l.NumOwned()
	e := &jpEngine{
		c: c, l: l, g: g, tr: tr,
		lo: l.Lo, hi: l.Hi,
		color:     make([]int32, nOwned),
		waitCount: make([]int32, nOwned),
		ghostCol:  make([]int32, g.Offsets[l.Hi]-g.Offsets[l.Lo]),
		mirror:    mirror[g.Offsets[l.Lo]:g.Offsets[l.Hi]],
		arcBase:   g.Offsets[l.Lo],
	}
	for i := range e.color {
		e.color[i] = -1
	}
	for i := range e.ghostCol {
		e.ghostCol[i] = -1
	}
	var recvArcs int64
	for vi := 0; vi < nOwned; vi++ {
		v := vi + e.lo
		for _, a := range g.Neighbors(v) {
			e.c.Compute(1)
			if priorityLess(v, int(a)) {
				e.waitCount[vi]++
			}
			if !l.Owns(int(a)) {
				recvArcs++
			}
		}
	}
	e.pendingArcs = recvArcs
	c.AccountAlloc(int64(nOwned)*8 + int64(len(e.ghostCol))*4)
	return e
}

// tryColor colors owned vertex vi if all higher-priority neighbors are
// done, then releases lower-priority waiters.
func (e *jpEngine) tryColor(vi int32) {
	if e.color[vi] >= 0 || e.waitCount[vi] > 0 {
		return
	}
	v := int(vi) + e.lo
	row := e.g.Neighbors(v)
	used := make([]bool, len(row)+1)
	for i, a := range row {
		e.c.Compute(1)
		var c int32 = -1
		if e.l.Owns(int(a)) {
			c = e.color[int(a)-e.lo]
		} else {
			c = e.ghostCol[e.g.Offsets[v]+int64(i)-e.arcBase]
		}
		if c >= 0 && int(c) < len(used) {
			used[c] = true
		}
	}
	var chosen int32
	for used[chosen] {
		chosen++
	}
	e.color[vi] = chosen
	e.ncolored++

	// Announce to every rank holding a ghost copy (once per cross arc,
	// so buffered transports stay within their bound) and release local
	// lower-priority neighbors.
	local := e.g.Offsets[v] - e.arcBase
	for i, a := range row {
		e.c.Compute(1)
		if e.l.Owns(int(a)) {
			if priorityLess(int(a), v) {
				ai := int32(int(a) - e.lo)
				e.waitCount[ai]--
				e.work = append(e.work, ai)
			}
			continue
		}
		e.sent++
		e.tr.Send(e.l.Owner(int(a)), ctxColor, transport.PackTarget(a, e.mirror[local+int64(i)]), int64(v)<<colorShift|int64(chosen))
	}
}

// handleMessage ingests one color announcement; its x word locates the
// arc it arrives on.
func (e *jpEngine) handleMessage(ctx, target, packed int64) {
	e.c.Compute(1)
	if ctx != ctxColor {
		panic(fmt.Sprintf("coloring: unknown context %d", ctx))
	}
	x, pos := transport.UnpackTarget(target)
	y := packed >> colorShift
	col := int32(packed & (1<<colorShift - 1))
	xi := int32(int(x) - e.lo)
	if xi < 0 || int(x) >= e.hi {
		panic(fmt.Sprintf("coloring: rank %d received announcement for vertex %d outside [%d,%d)", e.c.Rank(), x, e.lo, e.hi))
	}
	row := e.g.Offsets[x]
	if uint64(pos) >= uint64(e.g.Offsets[x+1]-row) {
		panic(fmt.Sprintf("coloring: announcement from %d names position %d of vertex %d's row of %d", y, pos, x, e.g.Offsets[x+1]-row))
	}
	arc := row + pos - e.arcBase
	if e.ghostCol[arc] >= 0 {
		panic(fmt.Sprintf("coloring: duplicate announcement for edge {%d,%d}", x, y))
	}
	e.ghostCol[arc] = col
	e.pendingArcs--
	if priorityLess(int(x), int(y)) && e.color[xi] < 0 {
		e.waitCount[xi]--
		e.work = append(e.work, xi)
	}
}

// Row implements driver.Kernel. The announcement count rides in the
// request slot; Jones-Plassmann has no reject/invalid traffic.
func (e *jpEngine) Row() (unresolved, done, req, rej, inv int64) {
	return e.pendingArcs, e.ncolored, e.sent, 0, 0
}

func (e *jpEngine) DrainWork() {
	for len(e.work) > 0 {
		vi := e.work[len(e.work)-1]
		e.work = e.work[:len(e.work)-1]
		e.tryColor(vi)
	}
}

func (e *jpEngine) Start() {
	for vi := int32(0); vi < int32(e.l.NumOwned()); vi++ {
		e.tryColor(vi)
		e.DrainWork()
	}
}

// Pending implements driver.Kernel: a rank is done when all owned
// vertices are colored and all expected announcements have been consumed
// (it owes nothing after its own announcements, sent eagerly at coloring
// time).
func (e *jpEngine) Pending() int64 {
	return int64(len(e.color)) - e.ncolored + e.pendingArcs
}

// Run executes distributed Jones-Plassmann coloring on g. The result is
// identical to Serial(g) for every model — the same uniqueness oracle as
// the matching suite.
func Run(g *graph.CSR, opt Options) (*ParallelResult, error) {
	colors := make([]int64, g.NumVertices())
	mirror := g.Mirror() // built once per graph, outside the simulated world
	out, err := driver.Run(g, opt, driver.Protocol{App: "coloring", MaxPerArc: maxMessagesPerCrossArc}, func(r *driver.Rank) error {
		e := newJPEngine(r.Comm, r.Local, r.Backend, mirror)
		r.Loop(e, e.handleMessage)
		for vi, col := range e.color {
			colors[e.lo+vi] = int64(col)
		}
		r.Sent = e.sent
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Color: make([]int, len(colors))}
	for v, c := range colors {
		res.Color[v] = int(c)
		if int(c)+1 > res.Colors {
			res.Colors = int(c) + 1
		}
	}
	return &ParallelResult{res, out}, nil
}
