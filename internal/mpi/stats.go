package mpi

import "slices"

// RankStats is one rank's traffic and resource ledger. During a run it is
// written only by the owning rank goroutine (what the mailboxes track —
// queue high-water marks, leftovers, peer sets — is kept under their
// locks and folded in by Run once every rank has returned), so no
// additional synchronization is needed. After Run
// returns, all ledgers are safe to read from any goroutine.
type RankStats struct {
	Rank int

	// Point-to-point.
	SendCount int64 // Isend/Ssend operations issued
	SendBytes int64
	RecvCount int64 // Recv operations completed
	RecvBytes int64
	// Collectives.
	CollCount    int64 // global collective operations
	NbrCollCount int64 // neighborhood collective operations
	NbrCollBytes int64 // bytes sent into neighborhood collectives
	// RMA.
	PutCount int64
	PutBytes int64

	// Virtual-time breakdown (seconds).
	CommTime float64 // time in communication calls, including waits
	CompTime float64 // time charged via Compute
	// WaitTime is the portion of CommTime spent blocked for remote
	// progress (clock jumps in waitUntil); CommTime - WaitTime is active
	// call overhead. PackTime/UnpackTime are the CPU costs of filling
	// and parsing aggregation buffers (Comm.Pack / Comm.Unpack), booked
	// outside CommTime. Together these drive Report.Profile, the
	// Table VIII style compute/pack/exchange/unpack/wait breakdown.
	WaitTime   float64
	PackTime   float64
	UnpackTime float64

	// Memory accounting (bytes).
	AllocCurrent   int64 // live application comm-buffer bytes
	AllocHighWater int64 // high-water of AllocCurrent
	// QueueHighWater is the high-water mark of bytes queued in this rank's
	// mailbox (unreceived eager point-to-point messages) — the analogue of
	// MPI internal eager-buffer memory. Neighborhood-collective chunks
	// wait in their sender's box, not here, and do not count. Run folds
	// it in from the mailbox (mailbox.fold).
	QueueHighWater int64
	// UnreceivedMsgs is the number of user-level messages still queued in
	// this rank's mailbox when the run ended (folded in like
	// QueueHighWater). Nonzero values are legal for protocols whose
	// termination tolerates stale in-flight messages (the Send-Recv
	// matching driver); CheckDrained asserts zero for workloads that
	// receive everything they send.
	UnreceivedMsgs int64
	// PeerBufBytes models the per-connection eager/rendezvous pools an
	// MPI implementation allocates for every peer a rank exchanges
	// point-to-point traffic with (the reason the paper's Send-Recv
	// variant is the memory hog at scale, Table VIII): EagerBufPerPeer
	// bytes per distinct destination. The receiving mailboxes know the
	// set, one source bucket per sender, so it is folded in by Run like
	// QueueHighWater. In a failed run it counts only the pushes that
	// landed before the poison.
	PeerBufBytes int64

	// Optional per-destination matrices (row view), length = world size.
	// MsgRow[d] counts messages this rank sent to d by any mechanism
	// (point-to-point, put, neighborhood chunk); ByteRow[d] the bytes.
	MsgRow  []int64
	ByteRow []int64
}

// EagerBufPerPeer is the modeled per-peer buffer pool for point-to-point
// connections (64 KiB, the order of MPICH/Cray eager-path pools).
const EagerBufPerPeer = 64 << 10

// init prepares a zeroed ledger for a world of n ranks. Ledgers are laid
// out in one per-run backing array (they outlive the run inside the
// Report, so they are never pooled).
func (rs *RankStats) init(rank, n int, matrices bool) {
	rs.Rank = rank
	if matrices {
		rs.MsgRow = make([]int64, n)
		rs.ByteRow = make([]int64, n)
	}
}

func (rs *RankStats) accountAlloc(bytes int64) {
	rs.AllocCurrent += bytes
	if rs.AllocCurrent > rs.AllocHighWater {
		rs.AllocHighWater = rs.AllocCurrent
	}
}

func (rs *RankStats) noteSend(dst int, bytes int64) {
	rs.SendCount++
	rs.SendBytes += bytes
	if rs.MsgRow != nil {
		rs.MsgRow[dst]++
		rs.ByteRow[dst] += bytes
	}
}

func (rs *RankStats) notePut(dst int, bytes int64) {
	rs.PutCount++
	rs.PutBytes += bytes
	if rs.MsgRow != nil {
		rs.MsgRow[dst]++
		rs.ByteRow[dst] += bytes
	}
}

func (rs *RankStats) noteNbrChunk(dst int, bytes int64) {
	rs.NbrCollBytes += bytes
	if rs.MsgRow != nil {
		rs.MsgRow[dst]++
		rs.ByteRow[dst] += bytes
	}
}

// MemoryBytes returns the modeled per-rank memory footprint of
// communication state: application buffers, runtime queue high-water,
// and per-peer connection pools.
func (rs *RankStats) MemoryBytes() int64 {
	return rs.AllocHighWater + rs.QueueHighWater + rs.PeerBufBytes
}

// Totals aggregates a set of per-rank ledgers.
type Totals struct {
	Msgs, Bytes       int64 // all transmitted traffic (p2p + put + neighborhood)
	P2PMsgs, P2PBytes int64
	PutMsgs, PutBytes int64
	NbrOps, NbrBytes  int64
	CollOps           int64
	MaxMemoryBytes    int64
}

// Totals aggregates all per-rank ledgers.
func (r *Report) Totals() Totals {
	var t Totals
	for _, rs := range r.Stats {
		t.P2PMsgs += rs.SendCount
		t.P2PBytes += rs.SendBytes
		t.PutMsgs += rs.PutCount
		t.PutBytes += rs.PutBytes
		t.NbrOps += rs.NbrCollCount
		t.NbrBytes += rs.NbrCollBytes
		t.CollOps += rs.CollCount
		if mem := rs.MemoryBytes(); mem > t.MaxMemoryBytes {
			t.MaxMemoryBytes = mem
		}
	}
	t.Msgs = t.P2PMsgs + t.PutMsgs
	t.Bytes = t.P2PBytes + t.PutBytes + t.NbrBytes
	return t
}

// MsgMatrix returns the per-pair message-count matrix, or nil if the run
// did not track matrices. Row = sender, column = receiver, matching the
// paper's communication plots.
func (r *Report) MsgMatrix() [][]int64 {
	return r.gatherRows(func(rs *RankStats) []int64 { return rs.MsgRow })
}

// ByteMatrix returns the per-pair byte-volume matrix (row = sender), or
// nil if the run did not track matrices.
func (r *Report) ByteMatrix() [][]int64 {
	return r.gatherRows(func(rs *RankStats) []int64 { return rs.ByteRow })
}

func (r *Report) gatherRows(row func(*RankStats) []int64) [][]int64 {
	if len(r.Stats) == 0 || row(r.Stats[0]) == nil {
		return nil
	}
	m := make([][]int64, len(r.Stats))
	for i, rs := range r.Stats {
		m[i] = slices.Clone(row(rs))
	}
	return m
}
