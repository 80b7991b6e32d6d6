// Package stats implements the manual instrumentation the paper uses on node
// access functions: per-thread counters of local and remote reads and CAS
// operations (classified by first-touch ownership), CAS success rates,
// per-(accessor, owner) heatmap matrices (Figs. 6–9 and 14–17), and traversal
// lengths (Fig. 5).
//
// Recording is strictly per-thread and allocation-free on the hot path: each
// worker owns a ThreadRecorder that only it writes, so counters are plain
// integers, and aggregation happens once at the end of a trial. A nil
// *ThreadRecorder disables instrumentation entirely (the node access
// functions nil-check), which is how throughput-only trials run.
package stats

import "layeredsg/internal/numa"

// AccessSink receives the raw shared-node access stream. The cache simulator
// (internal/cachesim) implements it to reproduce Table 2. A nil sink is
// ignored.
type AccessSink interface {
	// Access reports that `thread` touched the cache line holding node
	// `nodeID`. write distinguishes CAS/store traffic from loads.
	Access(thread int, nodeID uint64, write bool)
}

// ThreadRecorder accumulates one worker thread's instrumentation. It must
// only ever be used by its owning thread.
type ThreadRecorder struct {
	thread int
	node   int

	// pad isolates the hot counter block below from whatever precedes the
	// recorder in memory (the previous recorder's sink/pointer fields when
	// recorders sit in a slice, a neighbouring allocation otherwise), so two
	// threads' counters never share a cache line from either side.
	_ [64]byte //nolint:unused

	localReads  uint64
	remoteReads uint64
	localCAS    uint64
	remoteCAS   uint64
	casSuccess  uint64
	casFail     uint64
	visited     uint64
	searches    uint64
	ops         uint64
	relinks     uint64
	relinkNodes uint64
	deferrals   uint64

	casRow  []uint64
	readRow []uint64

	// readSpin/casSpin, when non-nil, charge simulated NUMA latency per
	// access, indexed by the owner's NUMA node (see LatencyModel).
	readSpin []int32
	casSpin  []int32

	sink AccessSink

	// pad keeps adjacent recorders out of each other's cache lines even if a
	// caller embeds them in a slice. Sized for a 128-byte stride so the
	// adjacent-line prefetcher cannot couple neighbours either.
	_ [128]byte //nolint:unused
}

// Thread returns the logical worker thread this recorder belongs to.
func (tr *ThreadRecorder) Thread() int {
	return tr.thread
}

// Node returns the NUMA node the owning thread is pinned to.
func (tr *ThreadRecorder) Node() int {
	return tr.node
}

// Read records one read of a shared node allocated by ownerThread on
// ownerNode. Reads of a node the executing thread is itself inserting must
// not be recorded (the algorithms use raw accessors there), matching the
// paper's exclusion of inherently-local initialization traffic.
func (tr *ThreadRecorder) Read(ownerThread, ownerNode int32, nodeID uint64) {
	if tr == nil {
		return
	}
	if tr.readSpin != nil && int(ownerNode) < len(tr.readSpin) {
		spin(tr.readSpin[ownerNode])
	}
	if int(ownerNode) == tr.node {
		tr.localReads++
	} else {
		tr.remoteReads++
	}
	if int(ownerThread) >= 0 && int(ownerThread) < len(tr.readRow) {
		tr.readRow[ownerThread]++
	}
	if tr.sink != nil {
		tr.sink.Access(tr.thread, nodeID, false)
	}
}

// CAS records one maintenance CAS (link, unlink, or flag) against a shared
// node allocated by ownerThread on ownerNode.
func (tr *ThreadRecorder) CAS(ownerThread, ownerNode int32, nodeID uint64, success bool) {
	if tr == nil {
		return
	}
	if tr.casSpin != nil && int(ownerNode) < len(tr.casSpin) {
		spin(tr.casSpin[ownerNode])
	}
	if int(ownerNode) == tr.node {
		tr.localCAS++
	} else {
		tr.remoteCAS++
	}
	if success {
		tr.casSuccess++
	} else {
		tr.casFail++
	}
	if int(ownerThread) >= 0 && int(ownerThread) < len(tr.casRow) {
		tr.casRow[ownerThread]++
	}
	if tr.sink != nil {
		tr.sink.Access(tr.thread, nodeID, true)
	}
}

// Visit records one node hop inside a search traversal (Fig. 5's
// nodes-per-search metric).
func (tr *ThreadRecorder) Visit() {
	if tr == nil {
		return
	}
	tr.visited++
}

// Search records that one shared-structure search started.
func (tr *ThreadRecorder) Search() {
	if tr == nil {
		return
	}
	tr.searches++
}

// Relink records one successful relink CAS that physically unlinked a chain
// of chainLen marked references with a single swing.
func (tr *ThreadRecorder) Relink(chainLen int) {
	if tr == nil {
		return
	}
	tr.relinks++
	tr.relinkNodes += uint64(chainLen)
}

// Deferral records one commission-period deferral: a search observed an
// invalid node it could not yet retire because the node's commission period
// had not expired (the lazy protocol's deliberate procrastination).
func (tr *ThreadRecorder) Deferral() {
	if tr == nil {
		return
	}
	tr.deferrals++
}

// OpCounters is a snapshot of the per-thread counters that vary within one
// operation. The observability layer (internal/obs) snapshots them at
// operation start and diffs at completion to attribute traversal work, CAS
// retries, relinks, and deferrals to individual operations.
type OpCounters struct {
	Visited     uint64
	Searches    uint64
	CASFail     uint64
	CASSuccess  uint64
	Relinks     uint64
	RelinkNodes uint64
	Deferrals   uint64
}

// Counters snapshots the recorder's cumulative per-op counters. A nil
// recorder returns zeros.
func (tr *ThreadRecorder) Counters() OpCounters {
	if tr == nil {
		return OpCounters{}
	}
	return OpCounters{
		Visited:     tr.visited,
		Searches:    tr.searches,
		CASFail:     tr.casFail,
		CASSuccess:  tr.casSuccess,
		Relinks:     tr.relinks,
		RelinkNodes: tr.relinkNodes,
		Deferrals:   tr.deferrals,
	}
}

// Sub returns the counter-wise difference c - earlier.
func (c OpCounters) Sub(earlier OpCounters) OpCounters {
	return OpCounters{
		Visited:     c.Visited - earlier.Visited,
		Searches:    c.Searches - earlier.Searches,
		CASFail:     c.CASFail - earlier.CASFail,
		CASSuccess:  c.CASSuccess - earlier.CASSuccess,
		Relinks:     c.Relinks - earlier.Relinks,
		RelinkNodes: c.RelinkNodes - earlier.RelinkNodes,
		Deferrals:   c.Deferrals - earlier.Deferrals,
	}
}

// Op records one completed map operation (insert/remove/contains), the
// denominator of every per-op metric in Table 1.
func (tr *ThreadRecorder) Op() {
	if tr == nil {
		return
	}
	tr.ops++
}

// Ops returns the number of operations recorded so far.
func (tr *ThreadRecorder) Ops() uint64 {
	if tr == nil {
		return 0
	}
	return tr.ops
}

// Recorder owns the per-thread recorders for one trial and aggregates them.
type Recorder struct {
	machine *numa.Machine
	trs     []*ThreadRecorder
}

// NewRecorder creates a recorder for every logical thread of the machine.
// sink may be nil.
func NewRecorder(machine *numa.Machine, sink AccessSink) *Recorder {
	t := machine.Threads()
	r := &Recorder{machine: machine, trs: make([]*ThreadRecorder, t)}
	for i := 0; i < t; i++ {
		r.trs[i] = &ThreadRecorder{
			thread:  i,
			node:    machine.NodeOf(i),
			casRow:  make([]uint64, t),
			readRow: make([]uint64, t),
			sink:    sink,
		}
	}
	return r
}

// ThreadRecorder returns the recorder owned by a logical thread.
func (r *Recorder) ThreadRecorder(thread int) *ThreadRecorder {
	return r.trs[thread]
}

// Threads returns the number of per-thread recorders.
func (r *Recorder) Threads() int {
	return len(r.trs)
}

// Summary holds the Table 1 metrics aggregated over all threads.
type Summary struct {
	Ops              uint64
	LocalReadsPerOp  float64
	RemoteReadsPerOp float64
	LocalCASPerOp    float64
	RemoteCASPerOp   float64
	CASSuccessRate   float64
	NodesPerSearch   float64
	// Relinks counts successful chain-unlinking CASes; RelinkChainAvg is the
	// mean number of marked references bypassed per relink.
	Relinks        uint64
	RelinkChainAvg float64
	// Deferrals counts commission-period deferrals (lazy protocol only).
	Deferrals uint64
}

// Summary aggregates all per-thread counters. Call only after every worker
// has stopped.
func (r *Recorder) Summary() Summary {
	var s Summary
	var lr, rr, lc, rc, succ, fail, visited, searches, relinkNodes uint64
	for _, tr := range r.trs {
		lr += tr.localReads
		rr += tr.remoteReads
		lc += tr.localCAS
		rc += tr.remoteCAS
		succ += tr.casSuccess
		fail += tr.casFail
		visited += tr.visited
		searches += tr.searches
		s.Ops += tr.ops
		s.Relinks += tr.relinks
		s.Deferrals += tr.deferrals
		relinkNodes += tr.relinkNodes
	}
	if s.Relinks > 0 {
		s.RelinkChainAvg = float64(relinkNodes) / float64(s.Relinks)
	}
	if s.Ops > 0 {
		ops := float64(s.Ops)
		s.LocalReadsPerOp = float64(lr) / ops
		s.RemoteReadsPerOp = float64(rr) / ops
		s.LocalCASPerOp = float64(lc) / ops
		s.RemoteCASPerOp = float64(rc) / ops
	}
	if succ+fail > 0 {
		s.CASSuccessRate = float64(succ) / float64(succ+fail)
	}
	if searches > 0 {
		s.NodesPerSearch = float64(visited) / float64(searches)
	}
	return s
}

// CASHeatmap returns the matrix H where H[i][j] is the absolute number of
// maintenance CAS operations performed by thread i on nodes allocated by
// thread j — the paper's Figs. 6–9. Call only after every worker has stopped.
func (r *Recorder) CASHeatmap() [][]uint64 {
	return r.heatmap(func(tr *ThreadRecorder) []uint64 { return tr.casRow })
}

// ReadHeatmap returns the analogous matrix for reads (Figs. 14–17).
func (r *Recorder) ReadHeatmap() [][]uint64 {
	return r.heatmap(func(tr *ThreadRecorder) []uint64 { return tr.readRow })
}

func (r *Recorder) heatmap(row func(*ThreadRecorder) []uint64) [][]uint64 {
	out := make([][]uint64, len(r.trs))
	for i, tr := range r.trs {
		out[i] = make([]uint64, len(r.trs))
		copy(out[i], row(tr))
	}
	return out
}

// LocalityByDistance aggregates a heatmap by NUMA distance between the
// accessor's node and the owner's node, returning accesses-per-thread-pair
// for each distinct distance. It quantifies the paper's qualitative claim
// that the larger the distance between two NUMA nodes, the bigger the
// reduction in accesses between threads pinned to them.
func (r *Recorder) LocalityByDistance(heatmap [][]uint64) map[int]float64 {
	totals := make(map[int]uint64)
	pairs := make(map[int]uint64)
	for i := range heatmap {
		for j := range heatmap[i] {
			d := r.machine.Topology().Distance(r.machine.NodeOf(i), r.machine.NodeOf(j))
			totals[d] += heatmap[i][j]
			pairs[d]++
		}
	}
	out := make(map[int]float64, len(totals))
	for d, total := range totals {
		out[d] = float64(total) / float64(pairs[d])
	}
	return out
}
