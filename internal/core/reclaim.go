package core

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"layeredsg/internal/node"
	"layeredsg/internal/obs"
)

// This file implements the reclamation pass of the lazy variants: the one
// path that retires the dead nodes no workload revives and returns retired
// nodes' arena slots to the free lists (DESIGN.md §8). The paper's protocol
// retires an invalid node after its commission period but never frees one.
//
// A handle checks the trigger every reclaimCheckEvery operations and, when
// occupied slots exceed reclaimSlotsPerKey per live key plus reclaimFloor,
// runs one pass inline, under its lease, unless another pass is running.
// Counting operations rather than allocations lets a read-only phase run
// the pass too, whose walk relinks the chains of retired nodes its searches
// would otherwise walk again and again. It runs after the operation has
// released its pin, so a pass that finds no other operation pinned frees
// what it arms at once. A pass that moves no node toward its free, say
// because an open snapshot gates every dead node, holds further triggered
// passes until occupied slots grow by a quarter, and by at least one check
// interval per stripe, or until a node is retired; meanwhile a check only
// frees the armed entries whose pins have drained, which needs no walk, and
// ends the hold if it frees any. A pass:
//
//  1. takes the limbo and settles the finish claim of every unarmed entry:
//     its inserted flag is set, or the pass wins the claim, so no agent can
//     link the node at another level afterwards;
//  2. walks every list once (skipgraph.RelinkAll), relinking each chain of
//     marked references with one CAS, marking each retired node it meets,
//     and collecting the dead nodes (unmarked, invalid);
//  3. arms the settled entries the walk did not meet at the current epoch:
//     nothing links them and nothing can link them again, so only a thread
//     pinned at or before that epoch can still hold one (a walk that ran
//     into a never-linked reference arms nothing);
//  4. retires the oldest dead nodes beyond one per live key plus
//     reclaimFloor, skipping nodes in commission and nodes an open snapshot
//     still needs; their limbo entries wait for a later walk;
//  5. advances the epoch and frees every armed entry MinPinned has passed,
//     queueing its local entry for erasure by the handle that inserted it.
//
// A retired node is thus relinked by the walk after its retirement, armed by
// the one after that, and freed once the pins from before its arming drain:
// under steady key drift a cycle of three passes, the last of which frees.
// Every retirement, search-time or the pass's, reaches the limbo through the
// Retire funnel's observer. The pass records no instrumentation traffic, so
// the paper's counts exclude it.

// The pass trigger and the retirement budget, in one place.
const (
	// reclaimCheckEvery is the number of operations between one handle's
	// trigger checks.
	reclaimCheckEvery = 1024
	// reclaimSlotsPerKey and reclaimFloor set the trigger: a pass runs once
	// occupied arena slots exceed reclaimSlotsPerKey × live keys +
	// reclaimFloor.
	reclaimSlotsPerKey = 3
	// reclaimFloor is also the retirement budget's floor: a pass leaves one
	// dead node per live key plus reclaimFloor unretired, for revivals and
	// for index answers on recently removed keys.
	reclaimFloor = 4096
)

// reclaimer is a lazy map's reclamation state.
type reclaimer[K cmp.Ordered, V any] struct {
	_ [64]byte //nolint:unused
	// gen counts the passes that freed something. A Store reads it after
	// every lease and, when it moved, erases the freed entries of its idle
	// stripes; the padding keeps the limbo's writers off its cache line.
	gen atomic.Uint64
	_   [56]byte //nolint:unused

	// mu admits one pass at a time: the trigger skips a pass while another
	// runs, Reclaim waits for it. The pass is the only agent that frees
	// slots, which is why its walk needs no epoch pin.
	mu sync.Mutex
	// hold is the occupied-slot count a triggered pass waits for after a
	// pass that moved no node toward its free (retired, met, armed or freed
	// none); 0 after a pass that did. holdLimbo is the limbo depth that
	// pass left: new retirements beyond it end the hold. Under mu.
	hold      atomic.Int64
	holdLimbo int64
	// dead is the walk's scratch list, owned by the pass holding mu.
	dead []deadNode[K, V]

	limboMu sync.Mutex
	limbo   []limboEntry[K, V]

	// built counts the keys a bulk load linked (Build). With the handles'
	// insert/remove deltas it makes the live-key count.
	built int64

	passes     atomic.Uint64
	retired    atomic.Uint64
	freed      atomic.Uint64
	limboDepth atomic.Int64
}

// limboEntry is one retired node awaiting its free. settled records that
// the node's finish claim was settled before a walk; epoch is 0 until the
// entry arms.
type limboEntry[K cmp.Ordered, V any] struct {
	n       *node.Node[K, V]
	epoch   uint64
	settled bool
}

// freedEntry is the local entry of a node a pass freed: the handle erases
// key's entry if it still holds the node life id (life IDs are never
// reused).
type freedEntry[K cmp.Ordered] struct {
	key K
	id  uint64
}

// deadNode is a dead node the walk stood on, with its death stamp
// (math.MaxUint64 while the remover has not stamped it yet), read only when
// the pass has dead nodes beyond its budget.
type deadNode[K cmp.Ordered, V any] struct {
	n   *node.Node[K, V]
	seq uint64
}

// enterLimbo appends a just-retired node to the limbo. Called by the Retire
// funnel's observer; non-lazy maps retire nothing.
func (m *Map[K, V]) enterLimbo(n *node.Node[K, V]) {
	rc := &m.rc
	rc.limboMu.Lock()
	rc.limbo = append(rc.limbo, limboEntry[K, V]{n: n})
	rc.limboMu.Unlock()
	rc.limboDepth.Add(1)
}

// liveKeys is the trigger's live-key count: a bulk load's keys plus every
// handle's successful inserts minus its successful removes.
func (m *Map[K, V]) liveKeys() int64 {
	live := m.rc.built
	for _, h := range m.handles {
		live += h.live.Load()
	}
	return max(live, 0)
}

// slotsLive is the number of occupied arena slots.
func (m *Map[K, V]) slotsLive() int64 { return int64(m.sg.ArenaStats().SlotsLive()) }

// maybeReclaim runs a pass when the trigger fires and no pass is running.
// While a fruitless pass holds the trigger, and nothing was retired since,
// it only frees the armed limbo entries whose pins have drained, which
// needs no walk. The calling handle holds its lease but no pin.
func (m *Map[K, V]) maybeReclaim() {
	if m.domain == nil {
		return
	}
	live := m.liveKeys()
	slots := m.slotsLive()
	if slots <= reclaimSlotsPerKey*live+reclaimFloor || !m.rc.mu.TryLock() {
		return
	}
	if slots > m.rc.hold.Load() || m.rc.limboDepth.Load() > m.rc.holdLimbo {
		m.reclaimPass(live)
	} else if m.freeArmed() > 0 {
		m.rc.hold.Store(0)
	}
	m.rc.mu.Unlock()
}

// Reclaim runs one reclamation pass synchronously, waiting for a running
// one to finish first, and returns the health gauges after it. For tests
// and tools: the map triggers its own passes. A no-op on non-lazy variants,
// which never free a slot.
func (m *Map[K, V]) Reclaim() obs.ReclaimStats {
	if m.domain == nil {
		return obs.ReclaimStats{}
	}
	m.rc.mu.Lock()
	m.reclaimPass(m.liveKeys())
	m.rc.mu.Unlock()
	return m.reclaimStats()
}

// reclaimStats reads the reclaim section of an observability snapshot.
func (m *Map[K, V]) reclaimStats() obs.ReclaimStats {
	st := obs.ReclaimStats{
		Passes:     m.rc.passes.Load(),
		Retired:    m.rc.retired.Load(),
		Freed:      m.rc.freed.Load(),
		LimboDepth: m.rc.limboDepth.Load(),
		LiveKeys:   m.liveKeys(),
	}
	if st.LiveKeys > 0 {
		st.SlotsPerLiveKey = float64(m.slotsLive()) / float64(st.LiveKeys)
	}
	return st
}

// reclaimPass is one pass (see the file comment); the caller holds rc.mu.
func (m *Map[K, V]) reclaimPass(live int64) {
	rc := &m.rc
	rc.limboMu.Lock()
	pending := rc.limbo
	rc.limbo = nil
	rc.limboMu.Unlock()
	for i := range pending {
		if le := &pending[i]; le.epoch == 0 {
			le.n.ClearMaint(node.MaintMet)
			le.settled = le.settled || le.n.Inserted() || le.n.ClaimFinish()
		}
	}

	dead := rc.dead[:0]
	complete := m.sg.RelinkAll(func(n *node.Node[K, V]) {
		dead = append(dead, deadNode[K, V]{n: n})
	})

	// advanced counts the unarmed entries this pass moved toward their
	// free: met (the walk relinked past them) or armed.
	advanced := 0
	epoch := m.domain.Epoch()
	for i := range pending {
		switch le := &pending[i]; {
		case le.epoch != 0:
		case le.n.MaintHas(node.MaintMet):
			advanced++
		case complete && le.settled:
			le.epoch = epoch
			advanced++
		}
	}

	retired := m.retireOldest(dead, int(live)+reclaimFloor)
	clear(dead)
	rc.dead = dead[:0]

	m.domain.Advance()
	rc.limboMu.Lock()
	rc.limbo = append(pending, rc.limbo...)
	rc.limboMu.Unlock()
	freed := m.freeArmed()

	rc.retired.Add(uint64(retired))
	rc.passes.Add(1)
	if retired+advanced+freed > 0 {
		rc.hold.Store(0)
		return
	}
	slots := m.slotsLive()
	rc.hold.Store(slots + max(slots/4, int64(reclaimCheckEvery*len(m.handles))))
	rc.holdLimbo = rc.limboDepth.Load()
}

// freeArmed frees every armed limbo entry MinPinned has passed, queueing
// its local entry for erasure by the handle that inserted it, and returns
// how many it freed. The caller holds rc.mu.
func (m *Map[K, V]) freeArmed() int {
	rc := &m.rc
	rc.limboMu.Lock()
	pending := rc.limbo
	rc.limbo = nil
	rc.limboMu.Unlock()
	minPinned := m.domain.MinPinned()
	kept := pending[:0]
	for _, le := range pending {
		if le.epoch == 0 || le.epoch >= minPinned {
			kept = append(kept, le)
			continue
		}
		h := m.handles[le.n.OwnerThread()]
		h.freedMu.Lock()
		h.freed = append(h.freed, freedEntry[K]{key: le.n.Key(), id: le.n.ID()})
		h.freedMu.Unlock()
		h.freedDue.Store(true)
		m.sg.FreeNode(le.n)
	}
	freed := len(pending) - len(kept)
	clear(pending[len(kept):])
	rc.limboMu.Lock()
	rc.limbo = append(kept, rc.limbo...)
	rc.limboMu.Unlock()
	if freed > 0 {
		rc.limboDepth.Add(-int64(freed))
		rc.freed.Add(uint64(freed))
		rc.gen.Add(1)
	}
	return freed
}

// retireOldest retires the oldest of the dead nodes beyond budget, skipping
// any that were revived or removed again since their stamp was read, that
// are still in commission, or that an open snapshot still needs. It returns
// how many it retired.
func (m *Map[K, V]) retireOldest(dead []deadNode[K, V], budget int) int {
	excess := len(dead) - budget
	if excess <= 0 {
		return 0
	}
	for i := range dead {
		if dead[i].seq = dead[i].n.DeadSeq(); dead[i].seq == 0 {
			dead[i].seq = math.MaxUint64
		}
	}
	// The walk lists dead nodes in key order; under key drift that is
	// nearly death order, which the sort's pattern detection makes cheap.
	slices.SortFunc(dead, func(a, b deadNode[K, V]) int { return cmp.Compare(a.seq, b.seq) })
	now := m.sg.Now()
	retired := 0
	for _, d := range dead[:excess] {
		n := d.n
		if n.DeadSeq() != d.seq || m.sg.InCommission(n, now) || !m.sg.CanRetireNode(n) {
			continue
		}
		if m.sg.Retire(n, nil) {
			retired++
		}
	}
	return retired
}

// ReclaimGen returns the number of reclamation passes that freed nodes:
// when it moves, handles may hold entries to erase.
func ReclaimGen[K cmp.Ordered, V any](m *Map[K, V]) uint64 { return m.rc.gen.Load() }

// EraseFreed erases an idle handle's local entries of the nodes reclamation
// freed, as its next operation would. A stripe that no lease reaches again
// would otherwise keep them. The caller must own h exclusively.
func EraseFreed[K cmp.Ordered, V any](h *Handle[K, V]) {
	if h.freedDue.Load() {
		h.eraseFreed()
	}
}

// eraseFreed erases the local entries the passes queued for this handle,
// each only if the entry still holds the freed life of its node: the key
// may have been erased since, or put again for a new node. Stale entries
// already fail closed on their life ID; erasing them is what keeps the
// local structure bounded, at a cost proportional to what the passes freed.
// The list is dropped, not kept for reuse: a handle whose stripe goes idle
// would otherwise hold the largest list it ever received.
func (h *Handle[K, V]) eraseFreed() {
	h.freedMu.Lock()
	list := h.freed
	h.freed = nil
	h.freedDue.Store(false)
	h.freedMu.Unlock()
	for _, f := range list {
		if _, own, ok := h.ls.Below(f.key); ok && own.ID == f.id {
			h.ls.Erase(f.key)
		}
	}
}
