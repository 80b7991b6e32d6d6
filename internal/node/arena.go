// Arena node allocation: per-socket chunked slabs addressed by 32-bit
// indices, the memory layout behind the packed level references (see
// internal/atomicmark.PackedRef).
//
// Layout of an arena index (32 bits, 0 reserved as nil):
//
//	[ shard:4 | chunk:19 | slot:9 ]
//
// Each shard is a socket-local slab: nodes allocated by threads pinned to one
// NUMA node come from that node's shard, so a node's backing memory lands on
// its owner's socket under first-touch allocation — the same locality story
// the paper tells for its C++ allocator. A shard grows in chunks of
// arenaChunkSlots nodes. Each node inlines MaxArenaLevels packed level words,
// the first three in the same cache line as its key (see Node), so a node and
// its level references share one contiguous block with no per-node slice and
// no per-mutation allocation. An arena built with more levels than that gives
// every chunk one overflow array holding its nodes' words from
// MaxArenaLevels up.
//
// Slots are allocated from a per-shard free list when one is populated, and
// from a per-shard atomic bump cursor otherwise. Retired nodes return to
// their shard's free list once the epoch-based reclamation pass (see
// internal/epoch and internal/core's reclaim.go) proves them unreachable and
// every pinned reader has moved past their retire epoch; Free bumps the
// slot's reuse generation so stale packed references — which embed the
// generation observed at link time — can never CAS against the slot's next
// occupant (the ABA guard). Under sustained insert/delete churn the live
// slot count therefore plateaus at the working set plus the limbo and
// free-list depths, instead of growing without bound. Capacity is 2^28 slots
// per shard; exhaustion panics (it means ~268M live-plus-unreclaimed nodes
// through one socket's threads on a single structure).
package node

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"layeredsg/internal/atomicmark"
)

const (
	// MaxArenaLevels is the number of level words inlined in every node,
	// sized so Node[int64,int64] is two cache lines. The paper's height is
	// ceil(log2 T)-1, so 6 levels cover layered maps on machines up to 64
	// hardware threads. Taller arenas (the skip-list baseline's
	// log2(keyspace) heights, larger machines) keep the words above it in a
	// per-chunk overflow array.
	MaxArenaLevels = 6

	arenaSlotBits  = 9 // 512 slots per chunk
	arenaChunkBits = 19
	arenaShardBits = 4

	arenaChunkSlots = 1 << arenaSlotBits
	arenaPosBits    = arenaSlotBits + arenaChunkBits
	arenaPosMask    = 1<<arenaPosBits - 1

	// MaxArenaShards bounds the shard (socket) count an arena supports.
	MaxArenaShards = 1 << arenaShardBits
)

// arenaChunk is one slab of nodes. In an arena taller than the inline
// words, slot s also owns over[s*extra : (s+1)*extra], its words from level
// MaxArenaLevels up (extra = levels - MaxArenaLevels); otherwise over is nil.
type arenaChunk[K cmp.Ordered, V any] struct {
	nodes []Node[K, V]
	over  []atomicmark.PackedRef
}

// arenaShard is one socket's slab. The bump cursor and the published chunk
// table are padded away from neighbouring shards so concurrent allocation on
// different sockets never false-shares.
type arenaShard[K cmp.Ordered, V any] struct {
	_ [64]byte //nolint:unused

	// next is the bump cursor: the number of slots ever carved out of this
	// shard's chunks (slot addresses are monotonic; reuse goes through the
	// free list instead of rewinding the cursor).
	next atomic.Uint64
	// chunks is the published chunk table. Readers resolve indices through
	// an atomic load; growth replaces the whole table under mu.
	chunks atomic.Pointer[[]arenaChunk[K, V]]
	mu     sync.Mutex

	// free is the shard's reclaimed-slot stack, fed by Free and drained by
	// alloc. freed counts Free calls cumulatively (reclaimed slots), reused
	// counts allocations served from the free list.
	freeMu sync.Mutex
	free   []uint32
	freed  atomic.Uint64
	reused atomic.Uint64

	_ [64]byte //nolint:unused
}

// Arena is a chunked node allocator with one shard per socket. All methods
// are safe for concurrent use. An Arena serves exactly one shared structure:
// indices are meaningful only within the arena that issued them.
type Arena[K cmp.Ordered, V any] struct {
	shards []arenaShard[K, V]
	// levels is the level-word count of every data node: the structure's
	// MaxLevel+1.
	levels int
}

// NewArena builds an arena with one shard per socket (clamped to
// [1, MaxArenaShards]) whose data nodes span up to levels levels (at least
// one, at most 127 so that a node's topLevel fits its int8).
func NewArena[K cmp.Ordered, V any](shards, levels int) *Arena[K, V] {
	if levels > math.MaxInt8 {
		panic(fmt.Sprintf("node: arena of %d levels exceeds %d", levels, math.MaxInt8))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > MaxArenaShards {
		shards = MaxArenaShards
	}
	a := &Arena[K, V]{shards: make([]arenaShard[K, V], shards), levels: max(levels, 1)}
	// Burn shard 0's slot 0 so no node ever receives index 0, which packed
	// references reserve as nil.
	a.shards[0].next.Store(1)
	return a
}

// Shards returns the shard count.
func (a *Arena[K, V]) Shards() int { return len(a.shards) }

// alloc carves one slot out of the given shard (clamped into range, so owner
// NUMA nodes beyond the shard count still allocate, just without locality)
// and wires the node's arena fields. Reclaimed slots are preferred over
// fresh ones, the shard's own first, then any other shard's; a reused node
// keeps the bumped generation Free gave it.
func (a *Arena[K, V]) alloc(shard int) *Node[K, V] {
	if shard < 0 || shard >= len(a.shards) {
		shard = 0
	}
	s := &a.shards[shard]
	if n := a.allocFree(s); n != nil {
		return n
	}
	// Before carving fresh memory, take a reclaimed slot another shard
	// holds: frees return a slot to its own shard, so a writer that moved
	// to another socket's stripe would otherwise strand those slots and grow
	// the arena. The node keeps its owner's locality labels either way.
	for i := range a.shards {
		if o := &a.shards[i]; o != s && o.freed.Load() > o.reused.Load() {
			if n := a.allocFree(o); n != nil {
				return n
			}
		}
	}
	pos := s.next.Add(1) - 1
	if pos > arenaPosMask {
		panic(fmt.Sprintf("node: arena shard %d exhausted (2^%d slots)", shard, arenaPosBits))
	}
	chunk := pos >> arenaSlotBits
	chunks := s.chunks.Load()
	for chunks == nil || uint64(len(*chunks)) <= chunk {
		s.grow(chunk, a.levels)
		chunks = s.chunks.Load()
	}
	n := &(*chunks)[chunk].nodes[pos&(arenaChunkSlots-1)]
	n.ar = a
	n.self = uint32(shard)<<arenaPosBits | uint32(pos)
	return n
}

// allocFree pops a reclaimed slot off the shard's free list, or returns nil
// when the list is empty. The popped node was fully reset by Free and
// already carries its bumped generation.
func (a *Arena[K, V]) allocFree(s *arenaShard[K, V]) *Node[K, V] {
	s.freeMu.Lock()
	if len(s.free) == 0 {
		s.freeMu.Unlock()
		return nil
	}
	idx := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.freeMu.Unlock()
	s.reused.Add(1)
	return a.At(idx)
}

// Free returns a retired data node's slot to its shard's free list, bumping
// the slot's reuse generation and resetting all per-life node state. The
// caller owns the safety argument: the node must be physically unreachable
// and every reader pinned before its retire epoch must have unpinned (the
// epoch-based reclamation pipeline establishes both). Sentinels are never
// freed.
func (a *Arena[K, V]) Free(n *Node[K, V]) {
	if n == nil || n.kind != Data {
		panic("node: Free of a sentinel or nil")
	}
	// Zero the life ID before anything else: stale-pointer holders (local
	// structures, the hash index) validate with LiveAs, which loads the marked
	// word before the ID — so clearing the ID first guarantees no validator
	// can pair the old ID with this slot's reset (or next life's) words.
	n.id.Store(0)
	// Bump the generation: any packed reference still embedding the old
	// generation is now permanently stale for CAS purposes.
	n.gen = (n.gen + 1) & atomicmark.PackedGenMask
	n.maint.Store(0) // Clears MaintInserted too.
	n.born.Store(0)
	n.dead.Store(0)
	for i := range n.w {
		n.w[i].Init(0, false, false)
	}
	for i := MaxArenaLevels; i < a.levels; i++ {
		a.overWord(n.self, i).Init(0, false, false)
	}
	s := &a.shards[n.self>>arenaPosBits]
	s.freed.Add(1)
	s.freeMu.Lock()
	s.free = append(s.free, n.self)
	s.freeMu.Unlock()
}

// grow extends the chunk table far enough to cover chunk, publishing the new
// table atomically. Readers holding the old table stay correct: chunk slices
// themselves never move.
func (s *arenaShard[K, V]) grow(chunk uint64, levels int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var chunks []arenaChunk[K, V]
	if cur := s.chunks.Load(); cur != nil {
		if uint64(len(*cur)) > chunk {
			return // Another allocator grew past us while we queued on mu.
		}
		chunks = append(chunks, *cur...)
	}
	for uint64(len(chunks)) <= chunk {
		chunks = append(chunks, newChunk[K, V](levels))
	}
	s.chunks.Store(&chunks)
}

// newChunk allocates one chunk of nodes, with an overflow array when levels
// exceeds the inline words.
func newChunk[K cmp.Ordered, V any](levels int) arenaChunk[K, V] {
	c := arenaChunk[K, V]{nodes: make([]Node[K, V], arenaChunkSlots)}
	if extra := levels - MaxArenaLevels; extra > 0 {
		c.over = make([]atomicmark.PackedRef, arenaChunkSlots*extra)
	}
	return c
}

// At resolves an arena index to its node; 0 resolves to nil. The index must
// have been issued by this arena. Generations are not checked here: a
// traversal only ever resolves references it loaded while pinned, and the
// epoch pipeline never recycles a slot out from under a pinned reader.
func (a *Arena[K, V]) At(idx uint32) *Node[K, V] {
	if idx == 0 {
		return nil
	}
	pos := idx & arenaPosMask
	chunks := *a.shards[idx>>arenaPosBits].chunks.Load()
	return &chunks[pos>>arenaSlotBits].nodes[pos&(arenaChunkSlots-1)]
}

// overWord returns the level-i word (i >= MaxArenaLevels) of the node at
// arena index idx, from its chunk's overflow array.
func (a *Arena[K, V]) overWord(idx uint32, i int) *atomicmark.PackedRef {
	pos := idx & arenaPosMask
	chunks := *a.shards[idx>>arenaPosBits].chunks.Load()
	extra := a.levels - MaxArenaLevels
	return &chunks[pos>>arenaSlotBits].over[int(pos&(arenaChunkSlots-1))*extra+i-MaxArenaLevels]
}

// NewData allocates a data node on the owner's shard, participating in
// levels 0..topLevel with all references nil, unmarked and valid (the lazy
// protocol's required initial state). topLevel must be below the arena's
// levels.
func (a *Arena[K, V]) NewData(key K, value V, topLevel int, vector uint32, owner Owner, id uint64, allocTS int64) *Node[K, V] {
	if topLevel >= a.levels {
		panic(fmt.Sprintf("node: top level %d needs more than the arena's %d levels", topLevel, a.levels))
	}
	n := a.alloc(int(owner.Node))
	n.key = key
	n.value = value
	if n.kind != Data {
		// Written on the slot's first carve only: freed slots are always
		// data slots (Free rejects sentinels), and stale-pointer validators
		// (LiveAs) read kind, through word's level mapping, before the ID
		// gate, so a reused slot must not see this field rewritten
		// mid-validation.
		n.kind = Data
	}
	n.topLevel = int8(topLevel)
	n.vector = vector
	n.ownerThread = owner.Thread
	n.ownerNode = int16(owner.Node)
	n.allocTS = allocTS
	for i := 0; i <= topLevel; i++ {
		n.word(i).Init(0, false, true)
	}
	// Publish the new life ID only after the words above are initialized:
	// LiveAs loads marked-then-ID, so an ID match implies the words read
	// belonged to this same life.
	n.id.Store(id)
	return n
}

// NewHead allocates the sentinel fronting the (level, label) list, pointing
// at tail. It carries a single level reference that stands for its own level
// (see "Sentinel sizing" in the package comment).
func (a *Arena[K, V]) NewHead(level int, label uint32, tail *Node[K, V], id uint64) *Node[K, V] {
	n := a.alloc(int(HeadOwner.Node))
	n.kind = Head
	n.topLevel = int8(level)
	n.vector = label
	n.ownerThread = HeadOwner.Thread
	n.ownerNode = int16(HeadOwner.Node)
	n.id.Store(id)
	n.w[0].Init(refOf(tail), false, true)
	return n
}

// NewTail allocates the shared terminating sentinel. It carries a single
// level reference shared by all levels, never followed by traversals (see
// "Sentinel sizing" in the package comment); maxLevel only sets its
// TopLevel.
func (a *Arena[K, V]) NewTail(maxLevel int, id uint64) *Node[K, V] {
	n := a.alloc(int(HeadOwner.Node))
	n.kind = Tail
	n.topLevel = int8(maxLevel)
	n.ownerThread = HeadOwner.Thread
	n.ownerNode = int16(HeadOwner.Node)
	n.id.Store(id)
	n.w[0].Init(0, false, true)
	return n
}

// ArenaShardStats describes one shard's (socket slab's) occupancy.
type ArenaShardStats struct {
	// Chunks is the number of chunk slabs allocated so far.
	Chunks int `json:"chunks"`
	// SlotsUsed is the number of slots ever carved from the bump cursor
	// (including shard 0's reserved nil slot). Reuse through the free list
	// does not advance it.
	SlotsUsed uint64 `json:"slots_used"`
	// SlotsReserved is the slot capacity of the allocated chunks.
	SlotsReserved uint64 `json:"slots_reserved"`
	// SlotsFree is the current depth of the shard's reclaimed-slot free
	// list.
	SlotsFree uint64 `json:"slots_free"`
	// SlotsReclaimed is the cumulative number of Free calls on this shard.
	SlotsReclaimed uint64 `json:"slots_reclaimed"`
	// SlotsReused is the cumulative number of allocations served from the
	// free list.
	SlotsReused uint64 `json:"slots_reused"`
}

// ArenaStats aggregates occupancy over all shards. It is also the arena
// section of an observability snapshot (internal/obs).
type ArenaStats struct {
	Shards         []ArenaShardStats `json:"shards"`
	Chunks         int               `json:"chunks"`
	SlotsUsed      uint64            `json:"slots_used"`
	SlotsReserved  uint64            `json:"slots_reserved"`
	SlotsFree      uint64            `json:"slots_free"`
	SlotsReclaimed uint64            `json:"slots_reclaimed"`
	SlotsReused    uint64            `json:"slots_reused"`
}

// SlotsLive is the number of slots currently occupied by a node: carved
// slots minus those sitting on free lists. Under sustained churn with
// reclamation active this plateaus instead of tracking SlotsUsed.
func (st ArenaStats) SlotsLive() uint64 {
	if st.SlotsFree > st.SlotsUsed {
		return 0
	}
	return st.SlotsUsed - st.SlotsFree
}

// Stats snapshots the arena's occupancy. Safe to call concurrently with
// allocation; the snapshot as a whole is not atomic.
func (a *Arena[K, V]) Stats() ArenaStats {
	st := ArenaStats{Shards: make([]ArenaShardStats, len(a.shards))}
	for i := range a.shards {
		s := &a.shards[i]
		ss := ArenaShardStats{
			SlotsUsed:      s.next.Load(),
			SlotsReclaimed: s.freed.Load(),
			SlotsReused:    s.reused.Load(),
		}
		s.freeMu.Lock()
		ss.SlotsFree = uint64(len(s.free))
		s.freeMu.Unlock()
		if chunks := s.chunks.Load(); chunks != nil {
			ss.Chunks = len(*chunks)
			ss.SlotsReserved = uint64(len(*chunks)) * arenaChunkSlots
		}
		if ss.SlotsUsed > ss.SlotsReserved {
			// The cursor can run ahead of a concurrent grow.
			ss.SlotsUsed = ss.SlotsReserved
		}
		st.Shards[i] = ss
		st.Chunks += ss.Chunks
		st.SlotsUsed += ss.SlotsUsed
		st.SlotsReserved += ss.SlotsReserved
		st.SlotsFree += ss.SlotsFree
		st.SlotsReclaimed += ss.SlotsReclaimed
		st.SlotsReused += ss.SlotsReused
	}
	return st
}
