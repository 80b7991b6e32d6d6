// Package node defines the shared-node representation used by the skip
// graph, skip list, and linked-list shared structures, together with the
// instrumented access functions the paper's evaluation hooks into.
//
// A shared node carries:
//
//   - an array of level references (next pointers with marked/valid bits) —
//     s.next[i] in the paper. Every node lives in an Arena (see arena.go),
//     and each reference is one atomicmark.PackedRef word packing a
//     generation-tagged arena index with the marked/valid bits, CAS-able
//     with zero allocation. The first MaxArenaLevels words sit inside the
//     node; taller arenas keep the rest in a per-chunk overflow array;
//   - first-touch ownership (allocating thread and its NUMA node), used by
//     the instrumentation to classify accesses as local or remote;
//   - the allocation timestamp used by the lazy variant's commission period;
//   - the MaintInserted bit set once all levels are linked (lazy insertion);
//   - the owning thread's membership vector, which determines the shared
//     linked lists the node participates in at every level.
//
// # Sentinel sizing
//
// Sentinels carry exactly one level reference regardless of structure
// height. A Head fronts a single (level, label) list and is only ever read
// or CASed at that level (descend/listHeadFor re-resolve the sentinel when a
// search drops a level), so its lone reference stands for its own level —
// accessing a head at any other level is a protocol violation and panics. A
// Tail terminates every list; traversals stop on its Kind before following
// its references, and the only field ever inspected is the (always unmarked)
// level-0 mark bit in skipDead — so all levels share its single reference.
//
// Access functions come in two flavours: instrumented (taking a
// *stats.ThreadRecorder, which may be nil) and raw. The algorithms use raw
// accessors when operating on a node the executing thread is itself
// inserting, because the paper's metrics deliberately exclude that
// inherently-local initialization traffic.
package node

import (
	"cmp"
	"runtime"
	"sync/atomic"

	"layeredsg/internal/atomicmark"
	"layeredsg/internal/stats"
)

// Kind distinguishes data nodes from the sentinel nodes that delimit lists.
type Kind uint8

const (
	// Data is a regular key/value node.
	Data Kind = iota + 1
	// Head is a per-(level, list-label) sentinel preceding every list; its key
	// compares below every data key.
	Head
	// Tail is the shared sentinel terminating every list; its key compares
	// above every data key.
	Tail
)

// Node is a shared node. The zero value is not usable; construct through
// an Arena.
//
// The layout is hot/cold. For 8-byte keys and values, Node[int64,int64] is
// 128 B and its first 64 B hold everything a hop of a descent or a level-0
// walk reads: the key, the arena pointer At needs to resolve a successor,
// the kind that word's level mapping tests, the life ID an index hit checks,
// and the low level words. A 2×4 machine's three words all sit there. The
// second line holds what only instrumented, snapshot and maintenance paths
// read. Wider keys or values push the words back toward the second line
// (DESIGN.md §7).
type Node[K cmp.Ordered, V any] struct {
	key K
	// ar is the arena the node lives in. It is the node's only pointer: a
	// second pointer slot per node measured slower in the GC's mark phase
	// (DESIGN.md §7).
	ar   *Arena[K, V]
	kind Kind
	// topLevel is the highest level this node participates in. Heads use it
	// as the level of the single list they front. NewArena caps levels at
	// 127 so it fits.
	topLevel int8
	// ownerNode is the allocating thread's NUMA node (see Owner).
	ownerNode int16
	// vector is the membership vector of the inserting thread; it selects the
	// list labels this node belongs to at each level. Heads store the label
	// of the list they front.
	vector uint32
	value  V
	// id is the node's unique life ID: a fresh value every (re)allocation,
	// zeroed by Arena.Free before the slot's references are reset. Atomic
	// because local structures and jump indexes validate their raw pointers
	// against it (see LiveAs) while reclamation rewrites it. It sits in the
	// first line because an index hit's LiveAs reads it beside w[0].
	id atomic.Uint64
	// w holds the level words below MaxArenaLevels (see word); the arena
	// keeps higher ones in its chunk overflow arrays. w[0..2] share the
	// first cache line with the fields above.
	w [MaxArenaLevels]atomicmark.PackedRef

	allocTS int64

	// born and dead are the node's life interval in mutation-sequence space,
	// stamped by the layered map for MVCC snapshot reads. born == 0 means the
	// current life has not been stamped yet (treated as invisible to every
	// snapshot — the stamp is always drawn after the snapshot's sequence, so
	// ordering the insert after the snapshot is consistent); dead == 0 means
	// the current life has no recorded removal. Revivals overwrite the pair
	// under the MaintLifeLock bit after preserving the old interval in the
	// map's revival log.
	born atomic.Uint64
	dead atomic.Uint64

	// gen is the node's slot reuse generation. Sentinels stay at 0; data
	// nodes carry the generation their slot had when it was (re)allocated,
	// bumped by Arena.Free. Every packed reference to the node
	// embeds this value (see refOf), so a CAS expecting a reference captured
	// before the slot was recycled fails instead of ABA-ing onto the new
	// occupant. Written only while the slot is unreferenced (allocation and
	// reclamation are separated by an epoch grace period), read freely.
	gen uint32

	// maint packs the per-node bookkeeping bits (see the Maint* constants):
	// the inserted flag, the finish claim that lets exactly one agent run a
	// node's FinishInsert, the life-stamp lock and the reclamation walk's
	// mark.
	maint atomic.Uint32

	// self is the node's index in its arena (never 0).
	self        uint32
	ownerThread int32
}

// Maintenance-state bits, set and cleared through TrySetMaint/ClearMaint.
const (
	// MaintFinishClaimed: some agent has won the right to run this node's
	// FinishInsert; everyone else must leave the node alone.
	MaintFinishClaimed uint32 = 1 << iota
	// MaintLifeLock: a micro spin lock serializing life-interval stamping
	// (revive and remove stamps). Held for a handful of instructions only;
	// see LockLife/UnlockLife.
	MaintLifeLock
	// MaintMet: a reclamation walk met this retired node in a chain of
	// marked references, so it was still linked then. The pass clears it
	// before the walk that decides whether the node's limbo entry may arm.
	MaintMet
	// MaintInserted: all levels of the node have been linked, or the agent
	// linking them has given up (see Inserted). Arena.Free clears it with
	// the other bits.
	MaintInserted
)

// Owner describes the first-touch ownership of a node.
type Owner struct {
	// Thread is the logical thread that allocated the node.
	Thread int32
	// Node is the NUMA node that thread is pinned to.
	Node int32
}

// HeadOwner attributes head-array accesses to thread 0 on node 0, matching
// the paper's arbitrary attribution of the head array (Fig. 8 discussion).
var HeadOwner = Owner{Thread: 0, Node: 0}

// Key returns the node's key. Only meaningful for data nodes.
func (n *Node[K, V]) Key() K { return n.key }

// Value returns the node's value. Values are immutable (set semantics).
func (n *Node[K, V]) Value() V { return n.value }

// Kind returns the node kind.
func (n *Node[K, V]) Kind() Kind { return n.kind }

// IsData reports whether the node is a regular data node.
func (n *Node[K, V]) IsData() bool { return n.kind == Data }

// TopLevel returns the highest level the node participates in.
func (n *Node[K, V]) TopLevel() int { return int(n.topLevel) }

// Vector returns the membership vector (or, for heads, the list label).
func (n *Node[K, V]) Vector() uint32 { return n.vector }

// OwnerThread returns the allocating logical thread.
func (n *Node[K, V]) OwnerThread() int32 { return n.ownerThread }

// OwnerNode returns the allocating thread's NUMA node.
func (n *Node[K, V]) OwnerNode() int32 { return int32(n.ownerNode) }

// ID returns the node's unique life ID (also used as its cache-line address
// by the cache simulator). Zero means the slot is sitting on a free list.
func (n *Node[K, V]) ID() uint64 { return n.id.Load() }

// LiveAs reports whether the node is still the same un-retired life that was
// observed when `id` was captured. Callers holding a raw pointer from a local
// structure or jump index must gate every dereference on it, under an epoch
// pin. The load order is what makes the check sound: the marked word is read
// first, the ID second. Arena.Free zeroes the ID before resetting the packed
// words and reallocation publishes the new ID only after re-initializing
// them, so an ID that still matches after an unmarked read belongs to the
// same life — and an unmarked life observed under a pin cannot be reclaimed
// until the pin drops (retiring it, a precondition of freeing, stamps a
// limbo epoch at or after the pin's).
func (n *Node[K, V]) LiveAs(id uint64, tr *stats.ThreadRecorder) bool {
	// Uninstrumented reads until the life is confirmed: this validator runs
	// on stale pointers whose slot may be mid-reallocation, and the
	// instrumented accessors evaluate per-life owner fields that the
	// reallocation rewrites. The marked word and the ID are atomic; kind is
	// slot-constant (Free never returns sentinels, so a data slot stays a
	// data slot for the arena's lifetime).
	if n.word(0).Marked() {
		return false
	}
	if n.id.Load() != id {
		return false
	}
	n.read(tr) // Same life confirmed; its fields are safe to read.
	return true
}

// ArenaIndex returns the node's arena index. For tests and tooling.
func (n *Node[K, V]) ArenaIndex() uint32 { return n.self }

// AllocTS returns the allocation timestamp (structure-relative nanoseconds),
// the base of the commission period.
func (n *Node[K, V]) AllocTS() int64 { return n.allocTS }

// Inserted reports whether all levels of the node have been linked.
func (n *Node[K, V]) Inserted() bool { return n.MaintHas(MaintInserted) }

// MarkInserted records that all levels have been linked.
func (n *Node[K, V]) MarkInserted() { n.maint.Or(MaintInserted) }

// Gen returns the node's slot reuse generation (0 for sentinels).
func (n *Node[K, V]) Gen() uint32 { return n.gen }

// --- Life-interval stamps (MVCC snapshot visibility) -----------------------

// BornSeq returns the mutation sequence at which the node's current life
// became visible; 0 when unstamped.
func (n *Node[K, V]) BornSeq() uint64 { return n.born.Load() }

// DeadSeq returns the mutation sequence at which the node's current life was
// removed; 0 when the life has no recorded removal.
func (n *Node[K, V]) DeadSeq() uint64 { return n.dead.Load() }

// DeadSeqRead returns the death stamp, recording a read. The life-stamp wait
// loops poll through it so the deterministic stepper treats each poll as a
// step point — an uninstrumented spin would never park, and the thread whose
// stamp the loop is waiting for would never be scheduled.
func (n *Node[K, V]) DeadSeqRead(tr *stats.ThreadRecorder) uint64 {
	n.read(tr)
	return n.dead.Load()
}

// StampBornCAS records the birth sequence of a freshly linked node, failing
// if a racing revive/remove cycle already stamped a newer life (in which case
// the caller's stamp is obsolete and must be dropped).
func (n *Node[K, V]) StampBornCAS(seq uint64) bool {
	return n.born.CompareAndSwap(0, seq)
}

// SetBorn overwrites the birth stamp. Callers must hold the life lock (or
// exclusive access to an unpublished node).
func (n *Node[K, V]) SetBorn(seq uint64) { n.born.Store(seq) }

// SetDead overwrites the death stamp. Callers must hold the life lock (or
// exclusive access to an unpublished node).
func (n *Node[K, V]) SetDead(seq uint64) { n.dead.Store(seq) }

// VisibleAt reports whether the node's current life covers snapshot sequence
// s. Transitional states during a revival err on the side of invisibility,
// which orders the racing mutation after the snapshot.
func (n *Node[K, V]) VisibleAt(s uint64) bool {
	b := n.born.Load()
	d := n.dead.Load()
	return b != 0 && b <= s && (d == 0 || d > s)
}

// LockLife acquires the life-stamp spin lock. Critical sections are a few
// plain stores plus, with a write-ahead log attached, one buffered append
// (never an fsync); contention requires concurrent revive/remove stamping
// of one node, so the spin is effectively unbounded-free in practice.
func (n *Node[K, V]) LockLife() {
	for !n.TrySetMaint(MaintLifeLock) {
		runtime.Gosched()
	}
}

// UnlockLife releases the life-stamp spin lock.
func (n *Node[K, V]) UnlockLife() { n.ClearMaint(MaintLifeLock) }

// TrySetMaint atomically sets a maintenance bit, reporting whether this call
// was the one that set it (false: it was already set).
func (n *Node[K, V]) TrySetMaint(bit uint32) bool {
	for {
		old := n.maint.Load()
		if old&bit != 0 {
			return false
		}
		if n.maint.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// ClearMaint atomically clears a maintenance bit.
func (n *Node[K, V]) ClearMaint(bit uint32) {
	for {
		old := n.maint.Load()
		if old&bit == 0 || n.maint.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// MaintHas reports whether a maintenance bit is currently set.
func (n *Node[K, V]) MaintHas(bit uint32) bool {
	return n.maint.Load()&bit != 0
}

// ClaimFinish arbitrates who runs this node's FinishInsert: exactly one
// agent — the first to set MaintFinishClaimed — wins, whether that is the
// owner inline or the reclamation pass settling a retired node's fate.
// Returns true when the caller may (and must) finish the node. Slot
// reclamation relies on the bit as the authoritative record that some agent
// may still be installing upper-level links (see internal/core's reclaim
// pass), so finishing a lazy node without it is never allowed.
func (n *Node[K, V]) ClaimFinish() bool {
	return n.TrySetMaint(MaintFinishClaimed)
}

// LessThan reports whether the node's key is strictly below key, treating
// heads as -inf and tails as +inf.
func (n *Node[K, V]) LessThan(key K) bool {
	switch n.kind {
	case Head:
		return true
	case Tail:
		return false
	default:
		return n.key < key
	}
}

// KeyEquals reports whether the node is a data node holding key.
func (n *Node[K, V]) KeyEquals(key K) bool {
	return n.kind == Data && n.key == key
}

// --- Level-word funnel -----------------------------------------------------
//
// Every level-reference access goes through the helpers below, which map the
// requested level onto the node's words (sentinels hold a single shared
// reference) and translate between packed slot references and *Node.

// word returns the node's level-`level` packed word. A data node's words
// below MaxArenaLevels, the hot case, are read inline; sentinels and higher
// levels go through wordSlow, kept out of line so word stays inlinable.
func (n *Node[K, V]) word(level int) *atomicmark.PackedRef {
	if n.kind == Data && level < MaxArenaLevels {
		return &n.w[level]
	}
	return n.wordSlow(level)
}

// wordSlow serves the cases word hands off. A data node's words from
// MaxArenaLevels up live in its chunk's overflow array. A tail's single
// reference stands for every level (only its always-false mark bit is ever
// read); a head's single reference stands for the one level it fronts.
func (n *Node[K, V]) wordSlow(level int) *atomicmark.PackedRef {
	switch n.kind {
	case Data:
		return n.ar.overWord(n.self, level)
	case Tail:
		return &n.w[0]
	default: // Head
		if level != int(n.topLevel) {
			panic("node: head sentinel accessed outside the level it fronts")
		}
		return &n.w[0]
	}
}

// refOf translates a successor pointer into slot-reference space: the node's
// arena index tagged with its current reuse generation.
func refOf[K cmp.Ordered, V any](p *Node[K, V]) uint64 {
	if p == nil {
		return 0
	}
	return atomicmark.MakeRef(p.self, p.gen)
}

func (n *Node[K, V]) refLoad(level int) atomicmark.Snapshot[Node[K, V]] {
	ps := n.word(level).Load()
	return atomicmark.Snapshot[Node[K, V]]{Next: n.ar.At(ps.Index()), Marked: ps.Marked, Valid: ps.Valid}
}

func (n *Node[K, V]) refNext(level int) *Node[K, V] {
	return n.ar.At(n.word(level).Index())
}

// --- Instrumented access functions (the paper's "node access functions") ---

// read and cas test tr before they load the owner fields and the life ID:
// ownerThread sits in the node's second line, which an unrecorded hop never
// reads.
func (n *Node[K, V]) read(tr *stats.ThreadRecorder) {
	if tr != nil {
		tr.Read(n.ownerThread, int32(n.ownerNode), n.id.Load())
	}
}

// Next returns the level-i successor, recording a read.
func (n *Node[K, V]) Next(level int, tr *stats.ThreadRecorder) *Node[K, V] {
	n.read(tr)
	return n.refNext(level)
}

// Marked returns the level-i marked bit, recording a read.
func (n *Node[K, V]) Marked(level int, tr *stats.ThreadRecorder) bool {
	n.read(tr)
	return n.word(level).Marked()
}

// MarkValid returns the level-i (marked, valid) pair, recording a read.
func (n *Node[K, V]) MarkValid(level int, tr *stats.ThreadRecorder) (marked, valid bool) {
	n.read(tr)
	return n.word(level).MarkValid()
}

func (n *Node[K, V]) cas(tr *stats.ThreadRecorder, ok bool) bool {
	if tr != nil {
		tr.CAS(n.ownerThread, int32(n.ownerNode), n.id.Load(), ok)
	}
	return ok
}

// CASNext swings the level-i successor from exp to next, failing if the
// reference is marked. Records a maintenance CAS. The relink optimization
// uses it to skip a chain of marked references in one CAS: exp is the
// chain's first node, next the first node past it.
func (n *Node[K, V]) CASNext(level int, exp, next *Node[K, V], tr *stats.ThreadRecorder) bool {
	return n.cas(tr, n.word(level).CASNext(refOf(exp), refOf(next)))
}

// CASMark flips the level-i marked bit, recording a maintenance CAS.
func (n *Node[K, V]) CASMark(level int, exp, next bool, tr *stats.ThreadRecorder) bool {
	return n.cas(tr, n.word(level).CASMark(exp, next))
}

// CASMarkValid atomically replaces the level-i (marked, valid) pair,
// recording a maintenance CAS. This is the linearization CAS of lazy insert
// and remove.
func (n *Node[K, V]) CASMarkValid(level int, expMarked, expValid, newMarked, newValid bool, tr *stats.ThreadRecorder) bool {
	return n.cas(tr, n.word(level).CASMarkValid(expMarked, expValid, newMarked, newValid))
}

// --- Raw access functions (inserting-node traffic, excluded from metrics) ---

// RawNext returns the level-i successor without recording.
func (n *Node[K, V]) RawNext(level int) *Node[K, V] {
	return n.refNext(level)
}

// RawLoad returns a snapshot of the level-i reference without recording.
func (n *Node[K, V]) RawLoad(level int) atomicmark.Snapshot[Node[K, V]] {
	return n.refLoad(level)
}

// RawMarked returns the level-i marked bit without recording.
func (n *Node[K, V]) RawMarked(level int) bool {
	return n.word(level).Marked()
}

// RawMarkValid returns the level-0 (marked, valid) pair without recording.
func (n *Node[K, V]) RawMarkValid() (marked, valid bool) {
	return n.word(0).MarkValid()
}

// RawStore unconditionally sets the level-i reference. Only safe on a node
// not yet published (e.g. toInsert.setNext(0, successors[0]) before the link
// CAS).
func (n *Node[K, V]) RawStore(level int, next *Node[K, V], marked, valid bool) {
	n.word(level).Store(refOf(next), marked, valid)
}

// RawCASNext swings the level-i successor without recording (used by
// finishInsert on the thread's own inserting node).
func (n *Node[K, V]) RawCASNext(level int, exp, next *Node[K, V]) bool {
	return n.word(level).CASNext(refOf(exp), refOf(next))
}
