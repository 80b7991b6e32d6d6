// Package skipgraph implements the paper's shared structure: a lock-free
// skip graph constrained in height and partitioned by per-thread membership
// vectors, in four flavours selected by Config:
//
//   - non-lazy skip graph (layered_map_sg's shared part): insertions link all
//     levels eagerly; removals mark level references top-down and searches
//     physically unlink chains of marked references with single CASes (the
//     relink optimization);
//   - lazy skip graph (lazy_layered_sg): insertions link only level 0 and are
//     completed on demand by FinishInsert; removals flip a valid bit, and
//     invalid nodes are marked for unlinking only after a commission period,
//     by searches running on behalf of updates (checkRetire/retire);
//   - sparse skip graph (layered_map_ssg): nodes draw a geometric top level,
//     appearing in level i of their skip list with expectation 1/2^i;
//   - degenerate shapes used as ablations: MaxLevel 0 turns the structure
//     into a lock-free linked list (layered_map_ll), and an all-zero
//     membership vector turns it into a single skip list (layered_map_sl).
//
// The package exposes the paper's algorithms (lazyRelinkSearch, retireSearch,
// insertHelper, removeHelper, finishInsert, retire) as building blocks; the
// layered map in internal/core composes them with thread-local structures.
// Searches start from arbitrary shared nodes — the defining skip graph
// property — so the layered map can jump in wherever its local structures
// point.
package skipgraph

import (
	"cmp"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"layeredsg/internal/membership"
	"layeredsg/internal/node"
)

// Config parameterizes a skip graph.
type Config struct {
	// MaxLevel is the structure height; level 0 is the single shared list and
	// level i has 2^i lists. The paper sets MaxLevel = ceil(log2 T) - 1.
	MaxLevel int
	// Lazy selects the lazy protocol (valid bits, deferred level linking,
	// commission-based retirement). Non-lazy structures ignore the valid bit,
	// and their searches physically unlink the chains of marked references
	// they traverse, like a textbook skip list; the lazy protocol leaves
	// unlinking to inserting substitutions (the paper's design) and to
	// RelinkAll.
	Lazy bool
	// Sparse selects geometric node heights (sparse skip graph). Non-sparse
	// nodes span all levels.
	Sparse bool
	// SingleList restricts the structure to one list per level (every
	// membership vector must be 0). This is how the non-layered skip list
	// baseline avoids allocating 2^level head sentinels per level when built
	// with large heights.
	SingleList bool
	// CommissionPeriod is how long an invalid node must have existed before
	// retire may mark it (lazy only). The paper uses a period proportional to
	// the thread count (350000·T cycles ≈ 117 µs·T at 3 GHz).
	CommissionPeriod time.Duration
	// Clock returns monotonic nanoseconds; nil uses a time.Since-based clock.
	// Injectable for deterministic tests.
	Clock func() int64
	// ArenaShards is the node arena's shard (socket) count; <= 0 means one
	// shard. Node owners allocate from the shard matching their NUMA node,
	// giving first-touch socket locality.
	ArenaShards int
	// CanRetire, when non-nil, gates retirement on MVCC snapshot visibility:
	// checkRetire consults it with the node's death sequence before marking,
	// and a false answer defers the retirement (the node must stay physically
	// traversable for a live snapshot older than its removal). The layered
	// map wires epoch.Domain.SafeToRetire here. Must be safe for concurrent
	// use.
	CanRetire func(dead uint64) bool
}

// Commission-period defaults. The paper's period is proportional to the
// thread count (350000·T cycles ≈ 117 µs·T at 3 GHz); uncapped, a 96-thread
// machine would defer every retirement ~9.6 ms, long enough for
// low-contention runs to accumulate unbounded marked-but-linked garbage.
const (
	// DefaultCommissionPerThread is the per-thread constant c of the default
	// commission period c·T.
	DefaultCommissionPerThread = 100 * time.Microsecond
	// DefaultCommissionCap bounds the proportional-to-T default. Revivals
	// (the commission period's purpose) cluster within microseconds of the
	// removal under every workload in the paper's evaluation; deferring
	// longer only delays garbage collection.
	DefaultCommissionCap = 2 * time.Millisecond
)

// DefaultCommissionPeriod returns the paper's commission period scaled to a
// thread count: proportional to T, tuned so high-contention runs keep
// retirement rare while low-contention runs do not accumulate garbage, and
// capped at DefaultCommissionCap. A thread count below 1 counts as 1.
// Callers that genuinely want a longer period set Config.CommissionPeriod
// explicitly.
func DefaultCommissionPeriod(threads int) time.Duration {
	return min(time.Duration(max(threads, 1))*DefaultCommissionPerThread, DefaultCommissionCap)
}

// SG is a concurrent skip graph. All methods are safe for concurrent use.
type SG[K cmp.Ordered, V any] struct {
	cfg  Config
	tail *node.Node[K, V]
	// heads[level][label] fronts the (level, label) shared linked list.
	heads   [][]*node.Node[K, V]
	nextID  atomic.Uint64
	started time.Time
	// retireObserver, when non-nil, is invoked once per successful Retire
	// (after all levels are marked) with the node that just died. Set once
	// via SetRetireObserver before concurrent use; layered indexes use it to
	// drop the node's entry. Must be fast and must not re-enter the graph.
	retireObserver func(*node.Node[K, V])
	// arena backs all of the structure's nodes: per-socket slabs whose level
	// references are packed atomic words (gen|index|marked|valid), so link
	// mutations allocate nothing. Retired nodes' slots return to their
	// shard's free list through the layered map's epoch-gated reclamation
	// pass (internal/core); the embedded generation tag keeps recycled
	// indices from ABA-ing stale CASes.
	arena *node.Arena[K, V]
}

// New builds an empty skip graph.
func New[K cmp.Ordered, V any](cfg Config) (*SG[K, V], error) {
	if cfg.MaxLevel < 0 {
		return nil, fmt.Errorf("skipgraph: negative MaxLevel %d", cfg.MaxLevel)
	}
	if cfg.MaxLevel > 30 {
		return nil, fmt.Errorf("skipgraph: MaxLevel %d too large (2^level lists per level)", cfg.MaxLevel)
	}
	if !cfg.SingleList && cfg.MaxLevel > 20 {
		return nil, fmt.Errorf("skipgraph: MaxLevel %d needs SingleList (2^level head sentinels per level otherwise)", cfg.MaxLevel)
	}
	if cfg.Lazy && cfg.CommissionPeriod <= 0 {
		return nil, fmt.Errorf("skipgraph: lazy structure requires a positive CommissionPeriod")
	}
	sg := &SG[K, V]{cfg: cfg, started: time.Now()}
	if sg.cfg.Clock == nil {
		start := sg.started
		sg.cfg.Clock = func() int64 { return int64(time.Since(start)) }
	}
	sg.arena = node.NewArena[K, V](cfg.ArenaShards, cfg.MaxLevel+1)
	sg.tail = sg.arena.NewTail(cfg.MaxLevel, sg.nextID.Add(1))
	sg.heads = make([][]*node.Node[K, V], cfg.MaxLevel+1)
	for level := 0; level <= cfg.MaxLevel; level++ {
		lists := 1
		if !cfg.SingleList {
			lists = 1 << uint(level)
		}
		sg.heads[level] = make([]*node.Node[K, V], lists)
		for label := 0; label < lists; label++ {
			sg.heads[level][label] = sg.arena.NewHead(level, uint32(label), sg.tail, sg.nextID.Add(1))
		}
	}
	return sg, nil
}

// SetRetireObserver installs a callback invoked after every successful
// Retire — the single funnel search-time and pass retirement both go
// through. Call before the structure sees concurrent use.
func (sg *SG[K, V]) SetRetireObserver(fn func(*node.Node[K, V])) { sg.retireObserver = fn }

// MaxLevel returns the structure height.
func (sg *SG[K, V]) MaxLevel() int { return sg.cfg.MaxLevel }

// Lazy reports whether the lazy protocol is active.
func (sg *SG[K, V]) Lazy() bool { return sg.cfg.Lazy }

// Sparse reports whether node heights are geometric.
func (sg *SG[K, V]) Sparse() bool { return sg.cfg.Sparse }

// CommissionPeriod returns the lazy protocol's commission period (zero for
// non-lazy structures).
func (sg *SG[K, V]) CommissionPeriod() time.Duration { return sg.cfg.CommissionPeriod }

// Now returns the structure clock in nanoseconds.
func (sg *SG[K, V]) Now() int64 { return sg.cfg.Clock() }

// Head returns the top-level head sentinel of the skip list a membership
// vector selects — the fallback search start when a local structure offers no
// closer node.
func (sg *SG[K, V]) Head(vector uint32) *node.Node[K, V] {
	return sg.headAt(sg.cfg.MaxLevel, vector)
}

// headAt returns the sentinel fronting the (level, label-of-vector) list.
func (sg *SG[K, V]) headAt(level int, vector uint32) *node.Node[K, V] {
	return sg.heads[level][membership.ListLabel(vector, level)]
}

// Tail returns the shared terminating sentinel.
func (sg *SG[K, V]) Tail() *node.Node[K, V] { return sg.tail }

// BottomHead returns the head sentinel of the single level-0 list, from
// which the whole dataset is reachable in key order.
func (sg *SG[K, V]) BottomHead() *node.Node[K, V] { return sg.heads[0][0] }

// RandomTopLevel draws a node height: MaxLevel for regular skip graphs, and
// for sparse skip graphs a geometric level with p=1/2 capped at MaxLevel, so
// a node appears in level i of its skip list with expectation 1/2^i.
func (sg *SG[K, V]) RandomTopLevel(rng *rand.Rand) int {
	if !sg.cfg.Sparse {
		return sg.cfg.MaxLevel
	}
	level := 0
	for level < sg.cfg.MaxLevel && rng.Int63()&1 == 0 {
		level++
	}
	return level
}

// NewNode allocates a data node owned by the given thread. On lazy
// structures it stamps the allocation timestamp the commission period runs
// from; non-lazy ones never read it and skip the clock. The node participates
// in levels 0..topLevel of the lists its vector selects, and comes from the
// owner's arena shard (socket-local backing memory).
func (sg *SG[K, V]) NewNode(key K, value V, vector uint32, owner node.Owner, topLevel int) *node.Node[K, V] {
	var allocTS int64
	if sg.cfg.Lazy {
		allocTS = sg.Now()
	}
	return sg.arena.NewData(key, value, topLevel, vector, owner, sg.nextID.Add(1), allocTS)
}

// CanRetireNode reports whether the MVCC retire gate (Config.CanRetire)
// allows marking n for physical removal right now. Always true without a
// gate.
func (sg *SG[K, V]) CanRetireNode(n *node.Node[K, V]) bool {
	if cr := sg.cfg.CanRetire; cr != nil {
		return cr(n.DeadSeq())
	}
	return true
}

// FreeNode returns a reclaimed node's slot to its arena shard's free list.
// The caller owns the safety argument: the node must have been verified
// unreachable and every pin from before its retire epoch released — the
// layered map's limbo protocol establishes both.
func (sg *SG[K, V]) FreeNode(n *node.Node[K, V]) { sg.arena.Free(n) }

// ArenaStats snapshots arena occupancy.
func (sg *SG[K, V]) ArenaStats() node.ArenaStats { return sg.arena.Stats() }

// SearchResult carries lazyRelinkSearch's per-level output: predecessors,
// the references observed immediately after each predecessor (middle), and
// successors (the first unmarked nodes at or after the goal key). Reused
// across searches to keep the hot path allocation-free.
type SearchResult[K cmp.Ordered, V any] struct {
	Preds   []*node.Node[K, V]
	Middles []*node.Node[K, V]
	Succs   []*node.Node[K, V]
}

// NewSearchResult allocates scratch arrays sized for the structure.
func (sg *SG[K, V]) NewSearchResult() *SearchResult[K, V] {
	n := sg.cfg.MaxLevel + 1
	return &SearchResult[K, V]{
		Preds:   make([]*node.Node[K, V], n),
		Middles: make([]*node.Node[K, V], n),
		Succs:   make([]*node.Node[K, V], n),
	}
}

// Len counts unmarked, valid data nodes by walking the bottom list. O(n);
// intended for tests and tooling, not hot paths.
func (sg *SG[K, V]) Len() int {
	count := 0
	for n := sg.heads[0][0].RawNext(0); n != nil && n.Kind() != node.Tail; n = n.RawNext(0) {
		marked, valid := n.RawMarkValid()
		if !marked && (valid || !sg.cfg.Lazy) {
			count++
		}
	}
	return count
}

// BottomKeys returns the keys of all logically present nodes in bottom-list
// order. O(n); for tests and tooling.
func (sg *SG[K, V]) BottomKeys() []K {
	var keys []K
	for n := sg.heads[0][0].RawNext(0); n != nil && n.Kind() != node.Tail; n = n.RawNext(0) {
		marked, valid := n.RawMarkValid()
		if !marked && (valid || !sg.cfg.Lazy) {
			keys = append(keys, n.Key())
		}
	}
	return keys
}

// LevelLen counts physically linked data nodes (marked or not) in the
// (level, label) list. O(list length); for tests and tooling.
func (sg *SG[K, V]) LevelLen(level int, label uint32) int {
	count := 0
	h := sg.heads[level][label]
	for n := h.RawNext(level); n != nil && n.Kind() != node.Tail; n = n.RawNext(level) {
		count++
	}
	return count
}
