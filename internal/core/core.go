// Package core implements the paper's primary contribution: the *layered
// map*, thread-local sequential structures (internal/local) layered over a
// partitioned skip graph (internal/skipgraph).
//
// Each thread operates through a Handle owning its local structure: an
// ordered tree, supporting backward traversal, that maps keys the thread
// inserted to shared nodes. It serves the paper's *jumping* role: getStart
// finds a nearby shared node from which searches start, instead of descending
// from the head, which is what converts the height-constrained skip graph into
// an efficient map and keeps traffic NUMA-local. The paper's *speculative*
// role (operations that can be linearized on a known node never search the
// shared structure) belongs to one shared hash index (internal/hindex) over
// every stripe's keys, which stands in for the paper's per-thread hash tables.
//
// Five shared-structure shapes from the paper's evaluation are supported:
// layered_map_sg, lazy_layered_sg, layered_map_ssg, layered_map_ll (linked
// list: MaxLevel 0) and layered_map_sl (single skip list: no partitioning),
// plus the lazy+sparse combination as an extension.
package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"layeredsg/internal/epoch"
	"layeredsg/internal/hindex"
	"layeredsg/internal/local"
	"layeredsg/internal/membership"
	"layeredsg/internal/node"
	"layeredsg/internal/numa"
	"layeredsg/internal/obs"
	"layeredsg/internal/persist"
	"layeredsg/internal/skipgraph"
	"layeredsg/internal/stats"
)

// Kind selects a layered-map variant from the paper's evaluation.
type Kind int

const (
	// LayeredSG is layered_map_sg: local maps over a non-lazy partitioned
	// skip graph of height ceil(log2 T) - 1.
	LayeredSG Kind = iota + 1
	// LazyLayeredSG is lazy_layered_sg: the lazy protocol (valid bits,
	// deferred level linking, commission-based retirement).
	LazyLayeredSG
	// LayeredSSG is layered_map_ssg: local maps over a sparse skip graph;
	// only nodes reaching the top level enter the local structures.
	LayeredSSG
	// LazyLayeredSSG combines laziness and sparsity (an extension the paper
	// lists as an ablation axis but does not evaluate).
	LazyLayeredSSG
	// LayeredLL is layered_map_ll: the shared structure degenerates to a
	// lock-free linked list (MaxLevel 0).
	LayeredLL
	// LayeredSL is layered_map_sl: same height, but every thread shares one
	// membership vector — a single skip list with no partitioning.
	LayeredSL
)

// String implements fmt.Stringer using the paper's names.
func (k Kind) String() string {
	switch k {
	case LayeredSG:
		return "layered_map_sg"
	case LazyLayeredSG:
		return "lazy_layered_sg"
	case LayeredSSG:
		return "layered_map_ssg"
	case LazyLayeredSSG:
		return "lazy_layered_ssg"
	case LayeredLL:
		return "layered_map_ll"
	case LayeredSL:
		return "layered_map_sl"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

func (k Kind) lazy() bool {
	return k == LazyLayeredSG || k == LazyLayeredSSG
}

func (k Kind) sparse() bool {
	return k == LayeredSSG || k == LazyLayeredSSG
}

// Config parameterizes a layered map.
type Config struct {
	// Machine supplies the thread count, pinning, and topology; required.
	Machine *numa.Machine
	// Kind selects the variant; required.
	Kind Kind
	// Scheme selects membership-vector generation; defaults to NUMAAware.
	Scheme membership.Scheme
	// CommissionPeriod overrides the lazy protocol's commission period;
	// 0 uses the paper's proportional-to-T default for the machine's thread
	// count, capped (skipgraph.DefaultCommissionPeriod).
	CommissionPeriod time.Duration
	// Recorder, when non-nil, enables the paper's instrumentation.
	Recorder *stats.Recorder
	// Tracer, when non-nil, attaches the observability layer: per-stripe
	// event rings and aggregated per-operation metrics (internal/obs). The
	// layer stays dormant — allocation-free per operation — until the
	// package-level obs.Enabled flag is flipped on. Tracing derives per-op
	// counter deltas from the recorder, so setting Tracer without Recorder
	// creates a recorder implicitly.
	Tracer *obs.Tracer
	// Clock overrides the structure clock (tests); nil uses real time.
	Clock func() int64
	// Seed seeds the per-thread RNGs drawing sparse node heights.
	Seed int64
	// WAL, when non-empty, names the directory holding the map's append-only
	// write-ahead log: every successful mutation is journaled with its MVCC
	// sequence stamp, so a base dump plus the WAL's post-snapshot suffix
	// reconstructs the map after a crash (see internal/persist and the
	// layeredsg constructors, which open the log — core itself never touches
	// the filesystem). Requires a lazy variant: the WAL's ordering guarantee
	// is the MVCC stamp order, which only the lazy variants maintain.
	WAL string
	// WALSync selects what Barrier, the write-ahead log's only
	// acknowledgment, promises (ignored when WAL is empty):
	// persist.SyncNever (the zero value: Barrier flushes to the OS, and the
	// log fsyncs only on Close and after dumps) or persist.SyncGroup (group
	// commit: Barrier fsyncs, batching concurrent acknowledgers into one
	// fsync).
	WALSync persist.SyncPolicy
}

// MutationSink receives the map's stamped mutations — the write-ahead log's
// attachment point. Insert and Remove are called at the MVCC stamp sites
// (under the node's life lock for removals and revivals), so per-key calls
// arrive in stamp order; seq is the mutation's sequence stamp, making the
// global order recoverable by sorting. Commit blocks until every mutation
// journaled before the call is durable per the sink's policy (Map.Barrier);
// Err surfaces the sink's sticky I/O error without waiting for Close
// (Map.WALErr); Stats is the tracer's wal section. Close flushes and
// releases the sink (called by Map.Close).
type MutationSink[K cmp.Ordered, V any] interface {
	Insert(seq uint64, key K, value V)
	Remove(seq uint64, key K)
	Commit(seq uint64) error
	Err() error
	Stats() persist.WALStats
	Close() error
}

// Map is a layered concurrent map. Obtain one Handle per worker thread; the
// Map itself holds only shared state.
type Map[K cmp.Ordered, V any] struct {
	cfg     Config
	sg      *skipgraph.SG[K, V]
	vectors []uint32
	handles []*Handle[K, V]
	// domain is the epoch/snapshot domain, nil for non-lazy variants.
	// Handles pin it around operations; snapshots acquire tickets from it;
	// the reclamation pass frees slots through it.
	domain *epoch.Domain
	// history preserves pre-revival life intervals for open snapshots (see
	// snapshot.go); nil exactly when domain is.
	history *revivalLog[K, V]
	// hidx is the shared hash index layered over the graph. Point operations
	// from any stripe, on own keys and other threads' alike, consult it
	// before paying a descent. A node it returns is a live life of the key,
	// verified under the operation's pin, on which the caller still
	// linearizes through its marked/valid bits, as the paper's contains does
	// on a node its search found. Reads and removes use Find, whose proof
	// that the key is not in the map lets them return at once; an insert
	// uses Lookup, which reads no pending count, since it is about to link
	// the key itself. Any other miss falls back to a descent.
	hidx *hindex.Index[K, V]
	// wal is the attached mutation sink (the write-ahead log), nil when no
	// WAL is configured. Set once before the map is shared; the stamp
	// functions feed it.
	wal MutationSink[K, V]
	// rc is the reclamation pass's state (see reclaim.go); unused on
	// non-lazy variants.
	rc reclaimer[K, V]
}

// New builds a layered map for the machine's thread count.
func New[K cmp.Ordered, V any](cfg Config) (*Map[K, V], error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("core: Config.Machine is required")
	}
	if cfg.Kind < LayeredSG || cfg.Kind > LayeredSL {
		return nil, fmt.Errorf("core: unknown kind %d", int(cfg.Kind))
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = membership.NUMAAware
	}

	threads := cfg.Machine.Threads()
	maxLevel := membership.MaxLevel(threads)
	var vectors []uint32
	switch cfg.Kind {
	case LayeredLL:
		maxLevel = 0
		vectors = make([]uint32, threads)
	case LayeredSL:
		vectors = make([]uint32, threads)
	default:
		var err error
		vectors, err = membership.Vectors(cfg.Machine, cfg.Scheme)
		if err != nil {
			return nil, err
		}
	}

	commission := cfg.CommissionPeriod
	if cfg.Kind.lazy() && commission == 0 {
		commission = skipgraph.DefaultCommissionPeriod(threads)
	}
	if cfg.WAL != "" && !cfg.Kind.lazy() {
		return nil, fmt.Errorf("core: %s supports no WAL (the log's ordering guarantee is the MVCC stamp order; use a lazy variant)", cfg.Kind)
	}
	var domain *epoch.Domain
	if cfg.Kind.lazy() {
		// One participant per stripe handle, all registered below before
		// the map is shared.
		domain = epoch.NewDomain(threads)
	}
	sgCfg := skipgraph.Config{
		MaxLevel:         maxLevel,
		Lazy:             cfg.Kind.lazy(),
		Sparse:           cfg.Kind.sparse(),
		CommissionPeriod: commission,
		Clock:            cfg.Clock,
		ArenaShards:      cfg.Machine.Topology().Nodes(),
	}
	if domain != nil {
		// Gate retirement on snapshot visibility: a node removed at sequence D
		// stays traversable while any snapshot with sequence < D is live.
		sgCfg.CanRetire = domain.SafeToRetire
	}
	sg, err := skipgraph.New[K, V](sgCfg)
	if err != nil {
		return nil, err
	}

	if cfg.Tracer != nil {
		cfg.Tracer.Attach(threads, maxLevel+1)
		if cfg.Recorder == nil {
			cfg.Recorder = stats.NewRecorder(cfg.Machine, nil)
		}
	}

	m := &Map[K, V]{
		cfg:     cfg,
		sg:      sg,
		vectors: vectors,
		handles: make([]*Handle[K, V], threads),
		domain:  domain,
		hidx:    hindex.New[K, V](),
	}
	if domain != nil {
		m.history = newRevivalLog[K, V](domain)
	}
	// Retire is the single funnel every lazy retirement passes through
	// (search-time and the reclamation pass). Observing it keeps the index
	// free of dead entries without touching the protocol's hot CASes, and
	// hands the node to the limbo its slot is freed from. Stale index
	// entries that slip through (the observer races a republish) fail
	// closed at lookup time, so the unpublish is an optimization, not a
	// safety requirement. The slot is not freed before enterLimbo, so n's
	// ID is still the retired life's.
	sg.SetRetireObserver(func(n *node.Node[K, V]) {
		m.hidx.Unpublish(n.Key(), n, n.ID())
		m.enterLimbo(n)
	})
	for t := 0; t < threads; t++ {
		var tr *stats.ThreadRecorder
		if cfg.Recorder != nil {
			tr = cfg.Recorder.ThreadRecorder(t)
		}
		m.handles[t] = &Handle[K, V]{
			m:      m,
			thread: t,
			vector: vectors[t],
			owner:  node.Owner{Thread: int32(t), Node: int32(cfg.Machine.NodeOf(t))},
			ls:     local.New[K, V](),
			tr:     tr,
			ot:     cfg.Tracer.Stripe(t),
			res:    sg.NewSearchResult(),
			rng:    rand.New(rand.NewSource(cfg.Seed + int64(t)*0x5851F42D4C957F2D + 1)),
			pin:    domain.Register(),
		}
	}

	m.setSources()
	return m, nil
}

// setSources installs the map's subsystem readers on its tracer: arena and
// index always, epoch and reclamation on lazy variants, and the write-ahead
// log's counters while one is attached.
func (m *Map[K, V]) setSources() {
	if m.cfg.Tracer == nil {
		return
	}
	src := obs.Sources{Arena: m.sg.ArenaStats, Index: m.hidx.Stats}
	if m.domain != nil {
		src.Epoch = m.domain.Stats
		src.Reclaim = m.reclaimStats
	}
	if m.wal != nil {
		src.WAL = m.wal.Stats
	}
	m.cfg.Tracer.SetSources(src)
}

// Machine returns the machine the map was built for.
func (m *Map[K, V]) Machine() *numa.Machine { return m.cfg.Machine }

// Tracer returns the attached observability tracer, or nil.
func (m *Map[K, V]) Tracer() *obs.Tracer { return m.cfg.Tracer }

// Config returns the configuration the map was built with.
func (m *Map[K, V]) Config() Config { return m.cfg }

// SetMutationSink attaches the write-ahead log's sink. It must be called
// before the map is shared with other goroutines (the layeredsg constructors
// call it between core.New and first use); a nil sink detaches. The sink's
// Stats become the tracer's wal section.
func (m *Map[K, V]) SetMutationSink(s MutationSink[K, V]) {
	m.wal = s
	m.setSources()
}

// MutationSink returns the attached sink, or nil.
func (m *Map[K, V]) MutationSink() MutationSink[K, V] { return m.wal }

// Barrier blocks until every mutation stamped before the call is durable in
// the attached write-ahead log, per its sync policy: an fsync under
// SyncGroup (concurrent Barriers share one fsync — group commit), a flush to
// the OS under SyncNever. It is the log's only acknowledgment. The barrier
// covers the calling goroutine's completed operations; mutations still in
// flight on other goroutines at the call are not promised (their stamps
// have not reached the journal yet). A map without a WAL returns nil
// immediately.
func (m *Map[K, V]) Barrier() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Commit(m.domain.Seq())
}

// WALErr returns the write-ahead log's sticky I/O error, if any, without
// waiting for Close — a failing journal drops records silently at the stamp
// sites (they cannot propagate errors), so health checks should poll this
// (or the tracer's wal.errs counter). Nil when no WAL is attached.
func (m *Map[K, V]) WALErr() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Err()
}

// Domain exposes the epoch/snapshot domain, or nil for non-lazy variants.
// For tests, benchmarks, and the observability layer.
func (m *Map[K, V]) Domain() *epoch.Domain { return m.domain }

// Close flushes and closes the attached write-ahead log. It does no
// reclamation work: the map runs no goroutines to stop, and what is in limbo
// goes with the arena. On lazy variants, Close first blocks until every open
// Snapshot has been closed, so no iterator outlives the map's shutdown.
// Callers that cannot rule out abandoned snapshots should close them before
// Close.
func (m *Map[K, V]) Close() {
	m.domain.WaitNoSnapshots()
	if m.wal != nil {
		m.wal.Close() //nolint:errcheck // sticky error surfaces via the WAL's own Err
	}
}

// Kind returns the variant.
func (m *Map[K, V]) Kind() Kind { return m.cfg.Kind }

// Threads returns the number of handles.
func (m *Map[K, V]) Threads() int { return len(m.handles) }

// Handle returns the per-thread handle for a logical thread. Handles are not
// safe for concurrent use; see the Handle type for the exact confinement
// contract.
func (m *Map[K, V]) Handle(thread int) *Handle[K, V] { return m.handles[thread] }

// Vector returns the membership vector assigned to a thread.
func (m *Map[K, V]) Vector(thread int) uint32 { return m.vectors[thread] }

// MaxLevel returns the shared structure's height.
func (m *Map[K, V]) MaxLevel() int { return m.sg.MaxLevel() }

// Len counts logically present keys. O(n); for tests and tooling.
func (m *Map[K, V]) Len() int { return m.sg.Len() }

// Keys returns the logically present keys in order. O(n); tests and tooling.
func (m *Map[K, V]) Keys() []K { return m.sg.BottomKeys() }

// SharedStructure exposes the underlying skip graph for inspection by tests
// and benchmarks.
func (m *Map[K, V]) SharedStructure() *skipgraph.SG[K, V] { return m.sg }

// Handle is one thread's view of the layered map: the thread's local
// structure plus scratch state.
//
// # Confinement contract
//
// A Handle is never safe for concurrent use: its local structures are
// sequential by design (that is where much of the technique's speed comes
// from). The invariant the protocol actually needs, however, is *exclusive
// ownership*, not goroutine identity: a Handle may migrate between
// goroutines, as long as every span of use is exclusive and handoffs are
// ordered by happens-before edges (a mutex, a channel send, ...). This is
// what lets a leasing layer pool handles and serve them to short-lived
// request goroutines. Layers that hand handles around should bracket each
// span with BeginExclusive/EndExclusive so violations trip an assertion
// instead of corrupting the local structures silently.
type Handle[K cmp.Ordered, V any] struct {
	m      *Map[K, V]
	thread int
	vector uint32
	owner  node.Owner
	ls     *local.Structure[K, V]
	tr     *stats.ThreadRecorder
	ot     *obs.StripeTracer
	res    *skipgraph.SearchResult[K, V]
	rng    *rand.Rand
	// pin is the handle's epoch-domain participant slot (nil for non-lazy
	// variants), held for the duration of every operation so slots the
	// operation may dereference cannot be recycled under it. Like the local
	// structures it is exclusively owned, so Pin/Unpin never race.
	pin *epoch.Pin
	// leased asserts the confinement contract at lease boundaries: 0 = free,
	// 1 = exclusively owned. Checked only in BeginExclusive/EndExclusive so
	// the per-operation fast paths stay untouched.
	leased atomic.Int32
	// live counts this handle's successful inserts minus its successful
	// removes: its share of the reclamation trigger's live-key count, read
	// by whichever handle checks the trigger.
	live atomic.Int64
	// ops counts operations since the handle last checked the reclamation
	// trigger.
	ops int
	// freed lists the local entries of this handle's nodes that reclamation
	// passes freed, for the handle to erase at its next operation (or the
	// Store, while the stripe is idle); freedDue says the list is not empty.
	freedMu  sync.Mutex
	freed    []freedEntry[K]
	freedDue atomic.Bool
}

// enter pins the handle for one operation, first erasing the local entries
// of nodes reclamation freed since the last operation.
func (h *Handle[K, V]) enter() {
	h.pin.Pin()
	if h.freedDue.Load() {
		h.eraseFreed()
	}
}

// leave unpins the handle after an operation and, every reclaimCheckEvery
// operations, checks the reclamation trigger.
func (h *Handle[K, V]) leave() {
	h.pin.Unpin()
	if h.ops++; h.ops >= reclaimCheckEvery {
		h.ops = 0
		h.m.maybeReclaim()
	}
}

// BeginExclusive marks the handle as exclusively owned by the caller for a
// span of operations. It panics if the handle is already owned — a
// confinement violation that would otherwise corrupt the sequential local
// structures silently. The CAS also publishes prior owners' writes to the
// acquiring goroutine when callers pair it with an external happens-before
// edge (as the Store facade's stripe locks do); it is an assertion, not a
// lock, and must not be relied on for mutual exclusion on its own.
func (h *Handle[K, V]) BeginExclusive() {
	if !h.leased.CompareAndSwap(0, 1) {
		panic(fmt.Sprintf("core: handle %d acquired while already exclusively owned (confinement violation)", h.thread))
	}
}

// EndExclusive releases the exclusive ownership taken by BeginExclusive. It
// panics if the handle is not currently owned (double release).
func (h *Handle[K, V]) EndExclusive() {
	if !h.leased.CompareAndSwap(1, 0) {
		panic(fmt.Sprintf("core: handle %d released while not exclusively owned (double release)", h.thread))
	}
}

// Thread returns the logical thread this handle belongs to.
func (h *Handle[K, V]) Thread() int { return h.thread }

// LocalTreeLen returns the local structure's size (tests/metrics).
func (h *Handle[K, V]) LocalTreeLen() int { return h.ls.TreeLen() }

// nodeOf extracts the shared node an iterator points at — validated against
// its recorded life — or nil (meaning: start from the head of this thread's
// skip list).
func (h *Handle[K, V]) nodeOf(it local.Iterator[K, V]) *node.Node[K, V] {
	if !it.Valid() {
		return nil
	}
	r := it.Value()
	if !h.m.usable(r, h.tr) {
		return nil
	}
	return r.N
}

// usable reports whether a local entry's shared node can seed a search. The
// paper's Alg. 4 admits nodes "not marked at level 0 OR not marked at
// MaxLevel", but a node whose level-0 reference is already marked has that
// reference *frozen*: a search entering level 0 with it as predecessor can
// bypass nodes inserted (next to a live predecessor) after the freeze —
// including inserts that completed before the current operation began, which
// would break linearizability. Requiring the start to be observed unmarked at
// level 0 within the current operation closes the window: any later freeze
// overlaps the operation, so a miss can be linearized before the racing
// insert.
//
// On lazy variants the check is node.LiveAs — the same unmarked
// observation plus the life-ID match proving the slot has not been recycled
// since the entry was recorded. It runs under the caller's pin (taken by the
// operation wrappers), which is what keeps a true result trustworthy until
// the operation ends. The shared index applies the same check to every
// entry it returns.
func (m *Map[K, V]) usable(r local.Ref[K, V], tr *stats.ThreadRecorder) bool {
	if m.domain != nil {
		return r.N.LiveAs(r.ID, tr)
	}
	return !r.N.Marked(0, tr)
}

// getStart is the paper's Alg. 4: find the closest local entry strictly
// below key whose shared node can seed a search, lazily finishing insertions
// it encounters and pruning entries whose shared nodes are fully retired.
// The paper's <= is safe only behind a per-thread hash that answers every
// own key; the shared index leaves a present key to a descent in an
// insert's pending window (linked, not yet published), and a search seeded
// from the key's own node starts past it. The own entry is skipped, and
// pruned if unusable like any entry the walk passes.
func (h *Handle[K, V]) getStart(key K) local.Iterator[K, V] {
	it, own, ok := h.ls.Below(key)
	if ok && !h.m.usable(own, h.tr) {
		h.ls.Erase(key)
	}
	for it.Valid() {
		r := it.Value()
		sn := r.N
		if h.m.usable(r, h.tr) {
			if sn.Inserted() {
				return it // Node already found fully inserted.
			}
			if !sn.ClaimFinish() {
				// Another agent holds the node's finish claim (the
				// reclamation pass settling a retired node's fate); two agents
				// running FinishInsert on the same node is unsafe (see
				// node.ClaimFinish). Skip it as a seed — it is not yet fully
				// inserted — and keep walking.
				it = it.Prev()
				continue
			}
			if h.m.sg.FinishInsert(sn, h.updateStartFrom(it), func() *node.Node[K, V] {
				return h.updateStartFrom(it)
			}, h.res, h.tr) {
				return it // Node has just been fully inserted.
			}
			// The node was marked before all levels were linked: prune it and
			// keep walking backward.
		}
		prev := it.Prev()
		h.ls.Erase(it.Key())
		it = prev
	}
	return it
}

// updateStartFrom is the paper's Alg. 9: a simplified getStart that never
// finishes insertions — it skips not-fully-inserted nodes and prunes fully
// retired ones, returning the closest usable, fully inserted shared node (or
// nil, meaning the head).
func (h *Handle[K, V]) updateStartFrom(it local.Iterator[K, V]) *node.Node[K, V] {
	for it.Valid() {
		r := it.Value()
		if h.m.usable(r, h.tr) {
			if r.N.Inserted() {
				return r.N
			}
			it = it.Prev()
			continue
		}
		prev := it.Prev()
		h.ls.Erase(it.Key())
		it = prev
	}
	return nil
}

// Insert adds key → value, returning false if the key is already present.
// Values of existing keys are not replaced (set semantics, as in the paper
// and Synchrobench). In lazy variants a successful insert may *revive* a
// logically-deleted node of the same key (the paper's case I-ii), restoring
// the value that key carried before its removal: values are fixed at node
// allocation because the revival linearizes on a single valid-bit CAS.
func (h *Handle[K, V]) Insert(key K, value V) bool {
	defer h.tr.Op()
	h.ot.Begin(obs.OpInsert, h.tr)
	h.enter()
	ok := h.insert(key, value)
	if ok {
		h.live.Add(1)
	}
	h.leave()
	h.traceEnd(key, ok)
	return ok
}

func (h *Handle[K, V]) insert(key K, value V) bool {
	if n, id := h.m.hidx.Lookup(key, h.tr); n != nil {
		done, inserted := h.m.sg.InsertHelper(n, h.tr)
		if done {
			if inserted {
				h.m.stampRevive(n, h.tr)
			}
			return inserted
		}
		h.m.hidx.Unpublish(key, n, id) // Marked since verification; descend.
	}
	// The shard's pending count covers the descent from before it can link
	// a node until afterBottomLink has published that node (or the descent
	// revived a node or found the key present), so no Find proves the key
	// absent meanwhile (hindex, "Exact for presence").
	h.m.hidx.BeginInsert(key)
	ok := h.lazyInsert(key, value)
	h.m.hidx.EndInsert(key)
	return ok
}

// lazyInsert is the paper's Alg. 3 plus the layered bookkeeping of Alg. 1.
func (h *Handle[K, V]) lazyInsert(key K, value V) bool {
	it := h.getStart(key)
	start := h.nodeOf(it)
	h.traceOrigin(start)
	var toInsert *node.Node[K, V]
	for {
		if h.m.sg.LazyRelinkSearch(key, start, h.vector, h.res, h.tr) {
			done, inserted := h.m.sg.InsertHelper(h.res.Succs[0], h.tr)
			if done {
				if inserted {
					h.m.stampRevive(h.res.Succs[0], h.tr)
				}
				return inserted
			}
			continue // Succs[0] became marked; retry the search (I-iii).
		}
		if toInsert == nil {
			toInsert = h.m.sg.NewNode(key, value, h.vector, h.owner, h.m.sg.RandomTopLevel(h.rng))
		}
		if h.m.sg.LinkLevel0(h.res, toInsert, h.tr) {
			break // Linearized at the successful CAS (I-iv-a).
		}
		start = h.updateStartFrom(it) // Alg. 3 line 15.
	}
	h.m.stampFreshBorn(toInsert)
	h.afterBottomLink(key, toInsert, it)
	return true
}

// afterBottomLink completes an insertion after the level-0 link: eager level
// linking where the protocol requires it, then local-structure bookkeeping.
func (h *Handle[K, V]) afterBottomLink(key K, toInsert *node.Node[K, V], it local.Iterator[K, V]) {
	restart := func() *node.Node[K, V] { return h.updateStartFrom(it) }
	switch {
	case toInsert.TopLevel() == 0:
		// Nothing above level 0 (linked-list variant, or a sparse node of
		// height 0).
		toInsert.MarkInserted()
	case !h.m.sg.Lazy():
		// Non-lazy protocol: link every level before returning.
		h.m.sg.FinishInsert(toInsert, h.nodeOf(it), restart, h.res, h.tr)
	case h.m.sg.Sparse() && toInsert.TopLevel() < h.m.sg.MaxLevel():
		// Lazy + sparse: nodes below the top level never enter the ordered
		// local structure, so no getStart would ever finish them lazily.
		// Finish eagerly — cheap, since sparse heights are geometric. The
		// claim only fails when a reclamation pass settled the node, retired
		// meanwhile, which then needs no upper links.
		if toInsert.ClaimFinish() {
			h.m.sg.FinishInsert(toInsert, h.nodeOf(it), restart, h.res, h.tr)
		}
	}
	// Publish before the sparse filter below: the shared index serves point
	// operations even for nodes the ordered local structures never track.
	h.m.hidx.Publish(key, toInsert, toInsert.ID())
	if h.m.sg.Sparse() && toInsert.TopLevel() < h.m.sg.MaxLevel() {
		// Sparse skip graphs keep local structures sparse too: only nodes
		// that reached the top level are added (paper, Sec. 2).
		return
	}
	h.ls.Put(key, toInsert)
}

// Remove deletes key, returning false if it was not present.
func (h *Handle[K, V]) Remove(key K) bool {
	defer h.tr.Op()
	h.ot.Begin(obs.OpRemove, h.tr)
	h.enter()
	ok := h.remove(key)
	h.leave()
	h.traceEnd(key, ok)
	return ok
}

func (h *Handle[K, V]) remove(key K) bool {
	n, id, absent := h.m.hidx.Find(key, h.tr)
	if absent {
		return false // Failed removal linearized within the index's proof.
	}
	if n != nil {
		done, removed := h.m.sg.RemoveHelper(n, h.tr)
		if done {
			if removed {
				h.finishRemove(key, n)
			}
			return removed
		}
		h.m.hidx.Unpublish(key, n, id) // Marked since verification; descend.
	}
	return h.lazyRemove(key)
}

// finishRemove is the bookkeeping after this thread won the removal of n:
// it closes the node's life (the dead stamp snapshots and the WAL read). A
// non-lazy removal marks the node and has no Retire funnel for the index to
// observe, so it also drops the key's local and index entries here; the lazy
// protocol keeps them (the node may be revived) and prunes on later
// detection.
func (h *Handle[K, V]) finishRemove(key K, n *node.Node[K, V]) {
	h.live.Add(-1)
	h.m.stampDead(n, h.tr)
	if !h.m.sg.Lazy() {
		h.ls.Erase(key)
		h.m.hidx.Unpublish(key, n, n.ID())
	}
}

// lazyRemove is the paper's Alg. 13.
func (h *Handle[K, V]) lazyRemove(key K) bool {
	it := h.getStart(key)
	start := h.nodeOf(it)
	h.traceOrigin(start)
	for {
		found, ok := h.m.sg.RetireSearch(key, start, h.vector, h.tr)
		if !ok {
			return false // Failed removal linearized at the bottom-level miss (R-iv).
		}
		done, removed := h.m.sg.RemoveHelper(found, h.tr)
		if done {
			if removed {
				h.finishRemove(key, found)
			}
			return removed
		}
		start = h.updateStartFrom(it) // found became marked; retry (R-iii).
	}
}

// Contains reports whether key is logically present.
func (h *Handle[K, V]) Contains(key K) bool {
	_, ok := h.Get(key)
	return ok
}

// Get returns the value stored under key. It is the paper's contains
// (Algs. 6–7) extended to return the node's value.
func (h *Handle[K, V]) Get(key K) (V, bool) {
	defer h.tr.Op()
	h.ot.Begin(obs.OpGet, h.tr)
	h.enter()
	v, ok := h.get(key)
	h.leave()
	h.traceEnd(key, ok)
	return v, ok
}

func (h *Handle[K, V]) get(key K) (V, bool) {
	var zero V
	n, id, absent := h.m.hidx.Find(key, h.tr)
	if absent {
		return zero, false // Failed contains linearized within the index's proof.
	}
	if n != nil {
		marked, valid := n.MarkValid(0, h.tr)
		if !marked {
			if valid {
				return n.Value(), true // Successful contains on the indexed node (C-i).
			}
			return zero, false // Unmarked invalid: logically absent.
		}
		h.m.hidx.Unpublish(key, n, id) // Marked since verification; descend.
	}
	it := h.getStart(key)
	start := h.nodeOf(it)
	h.traceOrigin(start)
	found, ok := h.m.sg.RetireSearch(key, start, h.vector, h.tr)
	if !ok {
		return zero, false // Failed contains (C-ii).
	}
	marked, valid := found.MarkValid(0, h.tr)
	if !marked && valid {
		return found.Value(), true // Successful contains (C-iii-a).
	}
	return zero, false // Failed contains (C-iii-b).
}

// traceOrigin classifies where the slow path entered the shared structure:
// seeded from a local-structure floor entry (the layered jump) or descending
// from the head sentinel — the paper's locality distinction. Operations that
// never reach a slow path keep Begin's OriginLocalHit default.
func (h *Handle[K, V]) traceOrigin(start *node.Node[K, V]) {
	if start != nil {
		h.ot.SetOrigin(obs.OriginLocalJump)
	} else {
		h.ot.SetOrigin(obs.OriginHead)
	}
}

// traceEnd closes the traced operation. The Active check keeps the disabled
// path free of key-squeezing work.
func (h *Handle[K, V]) traceEnd(key K, ok bool) {
	if h.ot.Active() {
		h.ot.End(h.tr, hindex.Squeeze(key), ok)
	}
}
