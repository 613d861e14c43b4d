package mpi

import (
	"fmt"
	"slices"
	"sync"
)

// Win is an MPI-3 RMA window: every rank exposes a local buffer of int64
// words that any other rank can target with one-sided Put. The runtime
// models passive-target synchronization, the mode the paper's RMA
// implementation uses: a window is open to Put from WinCreate to Free,
// as if inside one MPI_Win_lock_all epoch, and FlushAll
// (MPI_Win_flush_all) completes a rank's outstanding operations.
//
// Consistency contract (identical to MPI's separate memory model used
// correctly): a target may read a window region that a peer Put into only
// after some synchronizing communication from the origin informs it the
// data is there — in the matching code, the per-round neighborhood count
// exchange, exactly as in the paper (§IV-D). Put data is physically
// applied on delivery under a per-target lock, so conforming access
// patterns are race-free.
//
// Host pages vs modelled bytes: the modelled memory of a window is its
// full size, charged to the allocation ledger by WinCreate and returned
// by Free, as an MPI library allocates it. The host backs each rank's
// buffer with winPageWords-word pages allocated on the first Put that
// touches them; pages no Put has touched read as zeros. A window sized
// at a protocol bound that the run never reaches costs the simulator
// only the pages it writes.
type Win struct {
	bufs []*winBuf // by rank
}

// winPageWords is the size of one host page of a window buffer (512
// bytes). The RMA transport's per-neighbor regions are a few hundred
// words each and fill from their start, so small pages are what lets an
// untouched tail go unallocated: on a 64-rank SBP matching, 512-byte
// pages back 44 % of the window, 4 KiB pages 90 %.
const winPageWords = 64

type winPage [winPageWords]int64

// winBuf is one rank's window buffer: size words over a page table whose
// entries stay nil until a Put touches them. mu serializes the Puts into
// it (and the page allocations) with the owner's reads.
type winBuf struct {
	mu    sync.Mutex
	size  int
	pages []*winPage
}

// write copies data to words [disp, disp+len(data)), allocating the
// pages it touches. The caller holds mu and has checked the range.
func (b *winBuf) write(disp int, data []int64) {
	for len(data) > 0 {
		p, off := disp/winPageWords, disp%winPageWords
		pg := b.pages[p]
		if pg == nil {
			pg = new(winPage)
			b.pages[p] = pg
		}
		n := copy(pg[off:], data)
		data, disp = data[n:], disp+n
	}
}

// read copies words [disp, disp+len(dst)) into dst, zeros for pages no
// Put has touched. The caller holds mu and has checked the range.
func (b *winBuf) read(disp int, dst []int64) {
	for len(dst) > 0 {
		p, off := disp/winPageWords, disp%winPageWords
		var n int
		if pg := b.pages[p]; pg != nil {
			n = copy(dst, pg[off:])
		} else {
			n = min(len(dst), winPageWords-off)
			clear(dst[:n])
		}
		dst, disp = dst[n:], disp+n
	}
}

// winView is a rank's handle to a window; pending tracks bytes put since
// the last flush for virtual-time draining.
type winView struct {
	win            *Win
	c              *Comm
	pending        int64
	pendingTargets map[int]struct{}
}

// WinHandle is what ranks use to operate on a window.
type WinHandle = *winView

// WinCreate collectively creates an RMA window with a local buffer of
// localSize int64 words on every rank (sizes may differ per rank). The
// buffer memory is charged to the rank's allocation ledger.
func (c *Comm) WinCreate(localSize int) WinHandle {
	if localSize < 0 {
		panic(fmt.Sprintf("mpi: WinCreate: negative size %d", localSize))
	}
	// The window-id agreement of MPI_Win_create. Nothing reads the id,
	// but the round is part of the modelled cost.
	c.newID()

	buf := &winBuf{size: localSize, pages: make([]*winPage, (localSize+winPageWords-1)/winPageWords)}
	c.AccountAlloc(int64(8 * localSize))

	// Share buffer references through the hub.
	h, p, tmax, last := c.enterColl(func(h *collHub, p int) {
		h.ensureDeps()
		h.deps[p][c.rank] = buf
	})
	if c.rank == 0 {
		win := &Win{bufs: make([]*winBuf, c.w.n)}
		for r := range win.bufs {
			win.bufs[r] = h.deps[p][r].(*winBuf)
		}
		// Republish the assembled Win in rank 0's slot of the next
		// round, which deposits nothing; that round's barrier orders the
		// write before the other ranks' reads (see collHub).
		h.deps[p^1][0] = win
	}
	c.exitColl(tmax, last, 8)
	// Second rendezvous so non-root ranks can pick up the Win object.
	h, p, tmax, last = c.enterColl(nil)
	win := h.deps[p][0].(*Win)
	c.exitColl(tmax, last, 8)

	return &winView{win: win, c: c, pendingTargets: make(map[int]struct{})}
}

// Free collectively releases the window and returns its memory to the
// allocation ledger.
func (v *winView) Free() {
	c := v.c
	c.Barrier()
	c.AccountAlloc(int64(-8 * v.win.bufs[c.rank].size))
}

// Put copies data into target's window starting at word offset disp. The
// origin pays only the issue cost; transfer bytes are drained at the next
// FlushAll, modeling RDMA write pipelining.
func (v *winView) Put(target, disp int, data []int64) {
	c := v.c
	c.checkRank(target, "Put")
	b := v.win.bufs[target]
	if disp < 0 || disp+len(data) > b.size {
		panic(fmt.Sprintf("mpi: Put: rank %d target %d range [%d,%d) outside window of %d words",
			c.rank, target, disp, disp+len(data), b.size))
	}
	b.mu.Lock()
	b.write(disp, data)
	b.mu.Unlock()
	bytes := int64(8 * len(data))
	start := c.ps.now
	c.chargeComm(c.w.cost.AlphaPut)
	v.pending += bytes
	v.pendingTargets[target] = struct{}{}
	c.ps.rs.notePut(target, bytes)
	c.event(EvPut, target, -1, bytes, start)
}

// FlushAll completes all outstanding RMA operations issued by this rank
// (MPI_Win_flush_all): the virtual clock drains pending put bytes plus a
// per-active-target completion round trip.
func (v *winView) FlushAll() {
	c := v.c
	start := c.ps.now
	drained, targets := v.pending, len(v.pendingTargets)
	// The flush drain is in-flight latency, so perturbation jitters it
	// like any other transfer: flush completion time is a legal point of
	// variation (MPI only promises completion, not when).
	c.chargeComm(c.perturbLatency(c.w.cost.AlphaFlush +
		c.w.cost.FlushPerTarget*float64(targets) +
		c.w.cost.BetaPut*float64(drained)))
	v.pending = 0
	clear(v.pendingTargets)
	c.event(EvFlush, -1, targets, drained, start)
}

// ReadLocal copies words [disp, disp+n) of this rank's own window buffer
// into dst, growing it if its capacity is short, and returns dst[:n].
// Words no Put has written read as zero. Reads of regions written by
// remote Puts are safe once a synchronizing message from the origin (for
// example a count exchange) has been received, per the window
// consistency contract.
func (v *winView) ReadLocal(dst []int64, disp, n int) []int64 {
	b := v.win.bufs[v.c.rank]
	if disp < 0 || n < 0 || disp+n > b.size {
		panic(fmt.Sprintf("mpi: ReadLocal: rank %d range [%d,%d) outside window of %d words",
			v.c.rank, disp, disp+n, b.size))
	}
	dst = slices.Grow(dst[:0], n)[:n]
	b.mu.Lock()
	b.read(disp, dst)
	b.mu.Unlock()
	return dst
}
