// Package maintain is the background maintenance engine: it takes the lazy
// protocol's deferred structural work — finishing insertions' upper-level
// links, retiring commission-expired invalid nodes, and physically unlinking
// observed chains of marked references — off the operation critical path.
//
// In the paper all three kinds of work piggyback on searches
// (internal/skipgraph/search.go), so reader and updater latency pays for
// maintenance exactly when contention is highest. The engine instead gives
// every stripe (logical thread) a bounded work queue, keyed by the *owner*
// of the node needing work, and a small pool of helper goroutines — one per
// socket by default — drains them. Helpers prefer queues whose owner stripe
// is pinned to their own socket (so maintenance CASes stay NUMA-local) and
// steal from remote-socket queues only when local work runs dry.
//
// Robustness properties:
//
//   - bounded queues with drop-to-inline backpressure: a full queue rejects
//     the enqueue and the operation falls back to the paper's inline
//     protocol, so the engine can never fall behind unboundedly;
//   - per-node deduplication bits (see node.Maint*) keep hot nodes from
//     flooding queues with duplicate items, and a claim bit guarantees a
//     node's finishInsert runs under exactly one agent — helper or inline —
//     never both concurrently;
//   - the structure clock is injectable (through skipgraph.Config.Clock),
//     so commission-period behaviour is deterministic under test;
//   - helpers park when idle and wake on enqueue;
//   - Close drains outstanding work and stops the pool; work enqueued
//     concurrently with Close may be dropped, which is safe — every item is
//     re-discoverable (a later getStart finishes an unfinished insert, a
//     later search retires an expired node inline) because enqueues on a
//     closed engine report failure and callers fall back inline.
package maintain

import (
	"cmp"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"layeredsg/internal/epoch"
	"layeredsg/internal/node"
	"layeredsg/internal/numa"
	"layeredsg/internal/skipgraph"
	"layeredsg/internal/stats"
)

// DefaultQueueCap is the per-stripe queue capacity when Config leaves it 0.
const DefaultQueueCap = 256

// defaultParkInterval bounds how long a helper holding not-yet-actionable
// retire items sleeps between commission-expiry checks.
const defaultParkInterval = 200 * time.Microsecond

// Config parameterizes an Engine.
type Config[K cmp.Ordered, V any] struct {
	// SG is the shared structure the engine maintains; required.
	SG *skipgraph.SG[K, V]
	// Machine supplies stripe count and NUMA placement; required.
	Machine *numa.Machine
	// Helpers is the pool size; 0 uses the machine's socket count.
	Helpers int
	// QueueCap bounds each stripe's queue; 0 uses DefaultQueueCap.
	QueueCap int
	// Commission is the lazy protocol's commission period, used to compute
	// when enqueued retire items become actionable.
	Commission time.Duration
	// Recorders, when non-nil, holds one recorder per helper (from
	// stats.Recorder.HelperRecorder) so maintenance traffic keeps its
	// local/remote classification. Missing entries record nothing.
	Recorders []*stats.ThreadRecorder
	// Domain is the structure's epoch domain; required. Helpers pin it
	// around every traversal, fully unlinked retired nodes pass through a
	// limbo list, and their arena slots return to the free list once every
	// pin from before the hand-off has drained. The engine registers one
	// pin participant per helper plus one for synchronous drains.
	Domain *epoch.Domain
	// ParkInterval overrides the idle re-check interval for held retire
	// items (tests); 0 uses the default.
	ParkInterval time.Duration
	// Manual starts no helper goroutines: queued work runs only through
	// Flush and Close. For deterministic tests and schedules.
	Manual bool
}

// Engine drains deferred maintenance work on a pool of helper goroutines.
// All exported methods are safe for concurrent use.
type Engine[K cmp.Ordered, V any] struct {
	sg         *skipgraph.SG[K, V]
	commission int64
	queues     []queue[K, V]
	helpers    int
	// order[h] is helper h's queue scan order: own-socket stripes first.
	order        [][]int
	helperNodes  []int
	trs          []*stats.ThreadRecorder
	parkInterval time.Duration

	depth    atomic.Int64
	enqueues atomic.Uint64
	drains   atomic.Uint64
	steals   atomic.Uint64
	drops    atomic.Uint64

	// Slot reclamation. pins[h] is helper h's epoch pin; syncPin serves
	// Flush and Close's synchronous drains under syncMu.
	domain  *epoch.Domain
	pins    []*epoch.Pin
	syncMu  sync.Mutex
	syncPin *epoch.Pin
	// passMu is read-held by each helper across one working pass and
	// write-held by Flush, so a Flush never runs while a helper holds
	// popped items, a detached held or limbo list, or an epoch pin.
	passMu sync.RWMutex

	// held parks popped retire items that cannot resolve yet — still inside
	// their commission period, or blocked by the MVCC retire gate while a
	// snapshot is open. The list is engine-wide (not helper-private) so
	// Flush's synchronous drain reaches items a helper popped first; the
	// items keep their MaintRetireQueued dedup bit while held.
	heldMu sync.Mutex
	held   []item[K, V]

	// limbo holds retired, unlinked nodes waiting out epoch pins taken
	// before their hand-off; processLimbo re-verifies and frees them.
	limboMu     sync.Mutex
	limbo       []limboEntry[K, V]
	limboDepth  atomic.Int64
	limboEnters atomic.Uint64
	reclaimed   atomic.Uint64
	restamps    atomic.Uint64
	staleDrops  atomic.Uint64

	wake   chan struct{}
	stop   chan struct{}
	closed atomic.Bool
	done   sync.WaitGroup
}

// limboEntry is one retired node parked between unlink and slot free. An
// entry progresses through two states:
//
//   - unarmed (epoch == 0): handed off but not yet proven clean. Arming
//     requires (a) settling the finish-insert claim — winning it, or seeing
//     the inserted flag set — so no agent can ever install another link to
//     the node, and (b) a verification walk under the processor's pin
//     confirming no link remains. Entries that fail either check wait for
//     the next round.
//   - armed (epoch != 0): proven clean at the stamped epoch. Every pointer
//     to the node was obtained by traversing a link that existed before the
//     stamp, under a pin at most the stamp's epoch; once MinPinned advances
//     strictly past it the slot is free to recycle, with no re-verification.
type limboEntry[K cmp.Ordered, V any] struct {
	n     *node.Node[K, V]
	epoch uint64
}

// New builds and starts an engine: queues sized to the machine's threads,
// helpers running immediately.
func New[K cmp.Ordered, V any](cfg Config[K, V]) (*Engine[K, V], error) {
	if cfg.SG == nil {
		return nil, fmt.Errorf("maintain: Config.SG is required")
	}
	if cfg.Machine == nil {
		return nil, fmt.Errorf("maintain: Config.Machine is required")
	}
	if cfg.Domain == nil {
		return nil, fmt.Errorf("maintain: Config.Domain is required")
	}
	helpers := cfg.Helpers
	if helpers <= 0 {
		helpers = cfg.Machine.Topology().Sockets()
	}
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	park := cfg.ParkInterval
	if park <= 0 {
		park = defaultParkInterval
	}
	threads := cfg.Machine.Threads()
	nodes := cfg.Machine.Topology().Nodes()
	e := &Engine[K, V]{
		sg:           cfg.SG,
		commission:   int64(cfg.Commission),
		queues:       make([]queue[K, V], threads),
		helpers:      helpers,
		order:        make([][]int, helpers),
		helperNodes:  make([]int, helpers),
		trs:          make([]*stats.ThreadRecorder, helpers),
		parkInterval: park,
		domain:       cfg.Domain,
		pins:         make([]*epoch.Pin, helpers),
		wake:         make(chan struct{}, helpers),
		stop:         make(chan struct{}),
	}
	for h := 0; h < helpers; h++ {
		e.pins[h] = cfg.Domain.Register()
	}
	e.syncPin = cfg.Domain.Register()
	for t := 0; t < threads; t++ {
		e.queues[t].buf = make([]item[K, V], queueCap)
		e.queues[t].numaNode = cfg.Machine.NodeOf(t)
	}
	for h := 0; h < helpers; h++ {
		// Helpers are logically pinned round-robin over sockets; each scans
		// its own socket's stripes first and steals from the rest.
		hn := h % nodes
		e.helperNodes[h] = hn
		var local, remote []int
		for t := 0; t < threads; t++ {
			if e.queues[t].numaNode == hn {
				local = append(local, t)
			} else {
				remote = append(remote, t)
			}
		}
		e.order[h] = append(local, remote...)
		if h < len(cfg.Recorders) {
			e.trs[h] = cfg.Recorders[h]
		}
	}
	if !cfg.Manual {
		e.done.Add(helpers)
		for h := 0; h < helpers; h++ {
			go e.run(h)
		}
	}
	return e, nil
}

// QueueDepth gauges the total number of items currently queued (helper-held
// retire items waiting out their commission period are not counted).
func (e *Engine[K, V]) QueueDepth() int64 { return e.depth.Load() }

// Stats is a point-in-time snapshot of the engine's counters, which count
// from the engine's start. It is also the maintenance section of an
// observability snapshot (internal/obs).
type Stats struct {
	// Enqueues counts accepted work items; Drains counts executed ones.
	Enqueues uint64 `json:"enqueues"`
	Drains   uint64 `json:"drains"`
	// Steals counts executed items whose owner stripe was pinned to a
	// different socket than the executing helper (a subset of Drains).
	Steals uint64 `json:"steals"`
	// Drops counts enqueues rejected by a full queue (the work fell back to
	// the inline protocol).
	Drops uint64 `json:"drops"`
	// QueueDepth is the current total queue length.
	QueueDepth int64 `json:"queue_depth"`
	// LimboDepth is the number of retired nodes currently awaiting slot
	// reclamation; LimboEnters counts hand-offs to limbo and Reclaimed counts
	// slots returned to the arena free lists.
	LimboDepth  int64  `json:"limbo_depth"`
	LimboEnters uint64 `json:"limbo_enters"`
	Reclaimed   uint64 `json:"reclaims"`
	// Restamps counts limbo entries found re-linked at reclamation time and
	// sent around for another epoch round; StaleDrops counts queued items
	// dropped because their node entered limbo (or its slot was recycled)
	// before execution.
	Restamps   uint64 `json:"restamps"`
	StaleDrops uint64 `json:"stale_drops"`
}

// Stats snapshots the engine counters.
func (e *Engine[K, V]) Stats() Stats {
	return Stats{
		Enqueues:    e.enqueues.Load(),
		Drains:      e.drains.Load(),
		Steals:      e.steals.Load(),
		Drops:       e.drops.Load(),
		QueueDepth:  e.depth.Load(),
		LimboDepth:  e.limboDepth.Load(),
		LimboEnters: e.limboEnters.Load(),
		Reclaimed:   e.reclaimed.Load(),
		Restamps:    e.restamps.Load(),
		StaleDrops:  e.staleDrops.Load(),
	}
}

// LimboDepth gauges the number of retired nodes awaiting slot reclamation.
func (e *Engine[K, V]) LimboDepth() int64 { return e.limboDepth.Load() }

// stripeOf keys a node's work to its owner stripe, so socket-local helpers
// pick it up and the maintenance CAS stays NUMA-local.
func (e *Engine[K, V]) stripeOf(n *node.Node[K, V]) int {
	t := int(n.OwnerThread())
	if t < 0 || t >= len(e.queues) {
		return 0
	}
	return t
}

// EnqueueFinishInsert hands a bottom-linked node whose upper levels await
// linking to the engine. Returns false when the caller must keep the work
// inline (engine closed or queue full).
func (e *Engine[K, V]) EnqueueFinishInsert(n *node.Node[K, V]) bool {
	return e.enqueue(item[K, V]{kind: FinishInsertItem, n: n}, node.MaintFinishQueued)
}

// EnqueueRetire hands an invalid node to the engine, to be retired and
// unlinked once its commission period expires.
func (e *Engine[K, V]) EnqueueRetire(n *node.Node[K, V]) bool {
	return e.enqueue(item[K, V]{kind: RetireItem, n: n, readyAt: n.AllocTS() + e.commission}, node.MaintRetireQueued)
}

// EnqueueRelink hands the head of an observed marked chain to the engine for
// off-path physical unlinking.
func (e *Engine[K, V]) EnqueueRelink(n *node.Node[K, V]) bool {
	return e.enqueue(item[K, V]{kind: RelinkItem, n: n}, node.MaintRelinkQueued)
}

func (e *Engine[K, V]) enqueue(it item[K, V], bit uint32) bool {
	if e.closed.Load() {
		return false
	}
	// Enqueuers always hold the node legitimately (they observed it under
	// their own epoch pin, or own it), so the ID captured here is the ID of
	// the life the work item is about.
	it.id = it.n.ID()
	if !it.n.TrySetMaint(bit) {
		// Already queued (or, for finish items, already claimed): the work
		// is accounted for.
		return true
	}
	if !e.queues[e.stripeOf(it.n)].tryPush(it) {
		// Bounded-queue backpressure: clear the dedup bit so the node can be
		// re-enqueued later, and tell the caller to fall back inline.
		it.n.ClearMaint(bit)
		e.drops.Add(1)
		return false
	}
	e.depth.Add(1)
	e.enqueues.Add(1)
	select {
	case e.wake <- struct{}{}:
	default:
	}
	return true
}

// worker is one helper's (or one synchronous drain's) execution context.
type worker[K cmp.Ordered, V any] struct {
	e *Engine[K, V]
	// numaNode is the helper's socket (-1 for synchronous drains, which
	// never count steals).
	numaNode int
	order    []int
	res      *skipgraph.SearchResult[K, V]
	tr       *stats.ThreadRecorder
	// pin is the worker's epoch pin: held around every item execution and
	// every limbo verification walk, so slots the worker may touch cannot be
	// recycled under it.
	pin *epoch.Pin
}

// hold parks a popped retire item on the engine's shared held list.
func (e *Engine[K, V]) hold(it item[K, V]) {
	e.heldMu.Lock()
	e.held = append(e.held, it)
	e.heldMu.Unlock()
}

// takeHeld detaches and returns the current held list; the caller owns
// resolving or re-holding every item.
func (e *Engine[K, V]) takeHeld() []item[K, V] {
	e.heldMu.Lock()
	held := e.held
	e.held = nil
	e.heldMu.Unlock()
	return held
}

// reHold returns unresolved items to the held list.
func (e *Engine[K, V]) reHold(items []item[K, V]) {
	if len(items) == 0 {
		return
	}
	e.heldMu.Lock()
	e.held = append(e.held, items...)
	e.heldMu.Unlock()
}

func (e *Engine[K, V]) heldLen() int {
	e.heldMu.Lock()
	n := len(e.held)
	e.heldMu.Unlock()
	return n
}

// stale reports whether a work item's node pointer has outlived the node:
// the slot was handed to limbo (and may be recycled as soon as pre-hand-off
// pins drain) or was already recycled into a new life (ID mismatch). Must be
// called under the worker's pin: a limbo hand-off after a false result is
// stamped at an epoch our pin holds back, so the result stays trustworthy
// until Unpin.
func (w *worker[K, V]) stale(it item[K, V]) bool {
	if it.n.ID() != it.id || it.n.MaintHas(node.MaintLimbo) {
		w.e.staleDrops.Add(1)
		return true
	}
	return false
}

// run is a helper goroutine's main loop: drain, then park until woken (or
// until a held retire item may have become actionable).
func (e *Engine[K, V]) run(h int) {
	defer e.done.Done()
	w := &worker[K, V]{
		e:        e,
		numaNode: e.helperNodes[h],
		order:    e.order[h],
		res:      e.sg.NewSearchResult(),
		tr:       e.trs[h],
		pin:      e.pins[h],
	}
	for {
		e.passMu.RLock()
		worked := w.drainPass(false)
		if w.drainPending() {
			worked = true
		}
		// Advancing between passes is what lets limbo entries age out:
		// MinPinned can only pass an entry's stamp once the global epoch has
		// moved beyond it.
		e.domain.Advance()
		if w.processLimbo() {
			worked = true
		}
		e.passMu.RUnlock()
		if worked {
			continue
		}
		if e.heldLen() > 0 || e.limboDepth.Load() > 0 {
			timer := time.NewTimer(e.parkInterval)
			select {
			case <-e.stop:
				timer.Stop()
				w.finalDrain()
				return
			case <-e.wake:
				timer.Stop()
			case <-timer.C:
			}
		} else {
			select {
			case <-e.stop:
				w.finalDrain()
				return
			case <-e.wake:
			}
		}
	}
}

// drainPass sweeps every queue in the worker's preference order, executing
// all items found. force resolves in-commission retire items immediately
// (dropping them) instead of holding them.
func (w *worker[K, V]) drainPass(force bool) bool {
	worked := false
	for _, qi := range w.order {
		for {
			it, ok := w.e.queues[qi].pop()
			if !ok {
				break
			}
			w.e.depth.Add(-1)
			w.execute(it, w.e.queues[qi].numaNode, force)
			worked = true
		}
	}
	return worked
}

// execute runs one work item under the worker's epoch pin. ownerNode is the
// item's queue socket (-1 to skip steal accounting).
func (w *worker[K, V]) execute(it item[K, V], ownerNode int, force bool) {
	e := w.e
	w.pin.Pin()
	defer w.pin.Unpin()
	if w.stale(it) {
		return
	}
	if it.kind == RetireItem && !force {
		if marked, valid := it.n.RawMarkValid(); !marked && !valid && e.sg.Now() < it.readyAt {
			// Still in its commission period: hold it so a revival can still
			// happen in place, and re-check after parking (or under Flush).
			e.hold(it)
			return
		}
	}
	e.drains.Add(1)
	if ownerNode >= 0 && w.numaNode >= 0 && ownerNode != w.numaNode {
		e.steals.Add(1)
	}
	switch it.kind {
	case FinishInsertItem:
		// The claim bit arbitrates against the owning thread's inline
		// getStart: exactly one agent links the node's upper levels.
		if it.n.TrySetMaint(node.MaintFinishClaimed) && !it.n.Inserted() {
			e.sg.FinishInsert(it.n, nil, nil, w.res, w.tr)
		}
	case RetireItem:
		if w.executeRetire(it) {
			// In commission or gate-blocked: hold it and re-check on park
			// cycles (drainPending) or under Flush.
			e.hold(it)
		}
	case RelinkItem:
		// Clear before the cleanup so a chain re-observed mid-cleanup can
		// re-enqueue the node.
		it.n.ClearMaint(node.MaintRelinkQueued)
		e.sg.CleanupSearch(it.n.Key(), it.n.Vector(), w.res, w.tr)
	}
}

// executeRetire resolves a retire item now: revived nodes release their
// dedup bit, and expired nodes are retired and physically unlinked. A node
// found already marked (an inline search retired it first, e.g. when its
// enqueue raced Close) still gets the cleanup search: the lazy protocol
// performs no search-time unlinking, so this item is the only agent
// guaranteed to unlink it.
//
// It returns true when the item cannot be resolved yet: the node is still in
// its commission period (callers check that first, but a Remove can land
// between their read and this one, and it queued nothing because the bit was
// set), or the MVCC retire gate blocked it — a live snapshot predates the
// node's removal, so it must stay physically traversable (the same gate
// checkRetire applies inline). The caller owns re-holding the item; the
// dedup bit stays set meanwhile, and a shutdown drain releases it.
func (w *worker[K, V]) executeRetire(it item[K, V]) (held bool) {
	e := w.e
	marked, valid := it.n.RawMarkValid()
	if !marked {
		if valid {
			e.releaseRetire(it.n)
			return false
		}
		if e.sg.Now() < it.readyAt || !e.sg.CanRetireNode(it.n) {
			return true
		}
		if !e.sg.Retire(it.n, w.tr) {
			// Lost the race: revived, or concurrently retired. Re-read to
			// tell the two apart.
			if _, nowValid := it.n.RawMarkValid(); nowValid {
				e.releaseRetire(it.n)
				return false
			}
		}
	}
	e.sg.CleanupSearch(it.n.Key(), it.n.Vector(), w.res, w.tr)
	w.e.EnterLimbo(it.n)
	return false
}

// releaseRetire clears the retire dedup bit of a node just read valid. A
// Remove landing between that read and the clear found the bit set and
// queued nothing, so re-read the node after the clear and re-enqueue it if
// it is now unmarked and invalid, or its new death never gets a retire item.
func (e *Engine[K, V]) releaseRetire(n *node.Node[K, V]) {
	n.ClearMaint(node.MaintRetireQueued)
	if marked, valid := n.RawMarkValid(); !marked && !valid {
		e.EnqueueRetire(n)
	}
}

// EnterLimbo hands a retired (marked) node to the reclamation limbo list,
// unarmed. It is the hand-off for retirements the engine did not perform
// itself: a search that retires inline — the fallback when the retire queue
// is full or the engine closed — would otherwise strand the slot forever,
// since a marked node can never be re-enqueued for retirement; the engine's
// own retirements hand off here too. No-op when the node is not marked;
// duplicate hand-offs dedup on the node's limbo bit.
//
// Hand-off is unconditional for marked nodes — no reachability check here —
// because processLimbo performs the full settle/verify/arm sequence before
// any epoch clock starts ticking toward a free. A hand-off while links remain
// is safe, just rounds slower.
func (e *Engine[K, V]) EnterLimbo(n *node.Node[K, V]) {
	if marked, _ := n.RawMarkValid(); !marked {
		return
	}
	if !n.TrySetMaint(node.MaintLimbo) {
		return // already handed off
	}
	e.limboMu.Lock()
	e.limbo = append(e.limbo, limboEntry[K, V]{n: n})
	e.limboMu.Unlock()
	e.limboDepth.Add(1)
	e.limboEnters.Add(1)
}

// processLimbo advances every limbo entry one state if it can.
//
// Unarmed entries go through the CLEAN protocol before their epoch clock
// starts:
//
//  1. Settle the finish-insert claim. Upper-level links to a node are only
//     ever installed by the single agent holding its finish claim (inline
//     owner or helper — the claim bit arbitrates). If the inserted flag is
//     set, that agent is done forever (every FinishInsert exit sets it); if
//     we win the claim ourselves, no agent will ever start. A claim held by
//     an agent that has not yet set the flag means links may still appear:
//     keep the entry unarmed and retry next round.
//  2. Verify, under our pin, that no link to the node remains; a resurfaced
//     node (the claimed finisher linked it after the retire-time cleanup)
//     gets another cleanup walk and stays unarmed.
//  3. Arm: stamp the current epoch. From here the node is CLEAN — no link
//     exists and none can ever be created (cleanup relinks and fresh
//     bottom-links target only unmarked nodes, revival requires an unmarked
//     node, and the sole finisher is settled) — so any thread that can still
//     reach the node followed a link that existed before the stamp, under a
//     pin at most the stamp's epoch.
//
// Armed entries free once MinPinned() moves strictly past their stamp: every
// pin from before the stamp has drained, later pinners can never reach the
// node, so the slot returns to the arena free list with no re-verification.
// MinPinned is sampled once at pass start, before any arming this pass, so a
// freshly armed entry never frees against a stale sample — it waits for the
// next pass at the earliest.
func (w *worker[K, V]) processLimbo() bool {
	e := w.e
	e.limboMu.Lock()
	entries := e.limbo
	e.limbo = nil
	e.limboMu.Unlock()
	if len(entries) == 0 {
		return false
	}
	minPinned := e.domain.MinPinned()
	worked := false
	kept := entries[:0]
	for _, le := range entries {
		if le.epoch == 0 {
			if !le.n.Inserted() && !le.n.TrySetMaint(node.MaintFinishClaimed) {
				// A finisher holds the claim and has not exited yet.
				kept = append(kept, le)
				continue
			}
			w.pin.Pin()
			if !e.sg.Unlinked(le.n, w.tr) {
				e.sg.CleanupSearch(le.n.Key(), le.n.Vector(), w.res, w.tr)
				e.restamps.Add(1)
				kept = append(kept, le)
				w.pin.Unpin()
				worked = true
				continue
			}
			w.pin.Unpin()
			le.epoch = e.domain.Epoch()
			kept = append(kept, le)
			worked = true
			continue
		}
		if minPinned <= le.epoch {
			kept = append(kept, le)
			continue
		}
		e.sg.FreeNode(le.n)
		e.reclaimed.Add(1)
		e.limboDepth.Add(-1)
		worked = true
	}
	if len(kept) > 0 {
		e.limboMu.Lock()
		e.limbo = append(e.limbo, kept...)
		e.limboMu.Unlock()
	}
	return worked
}

// drainPending re-checks held retire items against the structure clock.
func (w *worker[K, V]) drainPending() bool {
	e := w.e
	pending := e.takeHeld()
	if len(pending) == 0 {
		return false
	}
	now := e.sg.Now()
	worked := false
	kept := pending[:0]
	for _, it := range pending {
		// Held items, like queued ones, are raw pointers without a pin:
		// re-guard under the pin before touching the node.
		w.pin.Pin()
		if w.stale(it) {
			w.pin.Unpin()
			worked = true
			continue
		}
		marked, valid := it.n.RawMarkValid()
		switch {
		case valid:
			// Revived in place — the commission period did its job.
			e.releaseRetire(it.n)
			worked = true
		case marked || now >= it.readyAt:
			// Expired, or already retired by someone who cannot unlink it
			// (an inline fallback retirement): executeRetire finishes the job.
			// A gate-blocked item stays held without counting as progress, so
			// the helper parks instead of spinning while a snapshot is open.
			if w.executeRetire(it) {
				kept = append(kept, it)
			} else {
				e.drains.Add(1)
				worked = true
			}
		default:
			kept = append(kept, it)
		}
		w.pin.Unpin()
	}
	e.reHold(kept)
	return worked
}

// finalDrain empties the worker's queues and the shared held items on
// shutdown: finish-insert and relink work completes, expired retires
// complete, and in-commission retires release their bits for the inline
// protocol.
func (w *worker[K, V]) finalDrain() {
	w.drainPass(true)
	for _, it := range w.e.takeHeld() {
		w.pin.Pin()
		if !w.stale(it) {
			w.e.drains.Add(1)
			if w.executeRetire(it) {
				// In commission or gate-blocked at shutdown: release the
				// dedup bit so the inline protocol can retire the node once
				// it expires (Map.Close waits out snapshots before closing
				// the engine, so the gate blocks only when the engine is
				// closed directly under a live snapshot).
				it.n.ClearMaint(node.MaintRetireQueued)
			}
		}
		w.pin.Unpin()
	}
}

// Flush synchronously executes all currently queued work — and all held
// retire items — from the calling goroutine: a deterministic alternative to
// waiting for helpers in tests. Retire items still inside their commission
// period are requeued rather than held. Flush also advances the epoch and
// runs one limbo round, so Manual-mode tests reclaim deterministically (call
// it until LimboDepth drains). Returns the number of items executed. Safe
// concurrently with helpers and operations (the per-node claim/dedup bits
// arbitrate) — concurrent Flush/Close calls serialize on an internal mutex,
// and Flush waits out any helper pass in progress, so no work is in a
// helper's hands while it runs — but recorded under no thread recorder.
func (e *Engine[K, V]) Flush() int {
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	e.passMu.Lock()
	defer e.passMu.Unlock()
	w := &worker[K, V]{e: e, numaNode: -1, res: e.sg.NewSearchResult(), pin: e.syncPin}
	executed := 0
	var requeue []item[K, V]
	for qi := range e.queues {
		for {
			it, ok := e.queues[qi].pop()
			if !ok {
				break
			}
			e.depth.Add(-1)
			w.pin.Pin()
			if w.stale(it) {
				w.pin.Unpin()
				continue
			}
			if it.kind == RetireItem {
				if marked, valid := it.n.RawMarkValid(); !marked && !valid && e.sg.Now() < it.readyAt {
					requeue = append(requeue, it)
					w.pin.Unpin()
					continue
				}
			}
			if w.executeItem(it) {
				// Gate-blocked retire: requeue after the pop loop (appending
				// to the live queue here would make this loop spin forever
				// while a snapshot is open).
				requeue = append(requeue, it)
				w.pin.Unpin()
				continue
			}
			e.drains.Add(1)
			w.pin.Unpin()
			executed++
		}
	}
	// Drain the shared held list too: items a helper popped but could not
	// resolve (in-commission at pop time, or gate-blocked by a snapshot)
	// would otherwise be unreachable here — their dedup bit blocks a
	// re-enqueue, so a test Flushing in a loop would never converge.
	for _, it := range e.takeHeld() {
		w.pin.Pin()
		if w.stale(it) {
			w.pin.Unpin()
			continue
		}
		if marked, valid := it.n.RawMarkValid(); !marked && !valid && e.sg.Now() < it.readyAt {
			requeue = append(requeue, it)
			w.pin.Unpin()
			continue
		}
		if w.executeItem(it) {
			requeue = append(requeue, it)
			w.pin.Unpin()
			continue
		}
		e.drains.Add(1)
		w.pin.Unpin()
		executed++
	}
	for _, it := range requeue {
		if e.closed.Load() || !e.queues[e.stripeOf(it.n)].tryPush(it) {
			it.n.ClearMaint(node.MaintRetireQueued)
			continue
		}
		e.depth.Add(1)
	}
	e.domain.Advance()
	w.processLimbo()
	return executed
}

// executeItem dispatches one item without hold-or-force retire handling
// (Flush resolved that already). It reports whether the MVCC retire gate
// held the item; the caller owns requeueing it.
func (w *worker[K, V]) executeItem(it item[K, V]) (held bool) {
	switch it.kind {
	case FinishInsertItem:
		if it.n.TrySetMaint(node.MaintFinishClaimed) && !it.n.Inserted() {
			w.e.sg.FinishInsert(it.n, nil, nil, w.res, w.tr)
		}
	case RetireItem:
		return w.executeRetire(it)
	case RelinkItem:
		it.n.ClearMaint(node.MaintRelinkQueued)
		w.e.sg.CleanupSearch(it.n.Key(), it.n.Vector(), w.res, w.tr)
	}
	return false
}

// Close stops accepting work, signals the pool, waits for helpers to
// final-drain and exit, then sweeps once more for items enqueued while the
// helpers were shutting down. Idempotent; a second Close returns after the
// first completes its CAS without waiting.
func (e *Engine[K, V]) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	close(e.stop)
	e.done.Wait()
	e.syncMu.Lock()
	defer e.syncMu.Unlock()
	w := &worker[K, V]{
		e:        e,
		numaNode: -1,
		order:    make([]int, len(e.queues)),
		res:      e.sg.NewSearchResult(),
		pin:      e.syncPin,
	}
	for i := range w.order {
		w.order[i] = i
	}
	w.finalDrain()
	// One last limbo round now that the helpers' pins are released. Entries
	// still held back by a live handle pin are abandoned: the structure is
	// being torn down and the arena goes with it.
	e.domain.Advance()
	w.processLimbo()
}

// Closed reports whether Close has begun.
func (e *Engine[K, V]) Closed() bool { return e.closed.Load() }
