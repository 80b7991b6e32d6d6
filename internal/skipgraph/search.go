package skipgraph

import (
	"math/rand"

	"layeredsg/internal/node"
	"layeredsg/internal/stats"
)

// normalizeStart returns a usable top-level search start: the candidate when
// it is a full-height, unretired entry point, otherwise the head sentinel of
// the skip list `vector` selects. Any shared node is a valid start (the skip
// graph property); heads are the fallback when the local structures offer
// nothing closer.
func (sg *SG[K, V]) normalizeStart(start *node.Node[K, V], vector uint32) *node.Node[K, V] {
	if start == nil {
		return sg.Head(vector)
	}
	if start.IsData() && start.TopLevel() < sg.cfg.MaxLevel {
		// Sparse nodes below full height cannot seed a top-level descent.
		return sg.Head(vector)
	}
	return start
}

// descend adjusts `previous` when moving from `level+1` to `level`: data
// nodes participate in all their levels so they carry over unchanged, but a
// head sentinel fronts exactly one list, so the search steps to the sentinel
// of the containing list one level below (label = low bits of the vector).
func (sg *SG[K, V]) descend(previous *node.Node[K, V], level int, vector uint32) *node.Node[K, V] {
	if previous.Kind() == node.Head && previous.TopLevel() != level {
		return sg.headAt(level, vector)
	}
	return previous
}

// listHeadFor returns the head sentinel of the list `previous` belongs to at
// `level` — the safe restart point when a traversal runs into a reference
// that was never linked (see scanLevel).
func (sg *SG[K, V]) listHeadFor(previous *node.Node[K, V], level int, vector uint32) *node.Node[K, V] {
	if previous.IsData() {
		return sg.headAt(level, previous.Vector())
	}
	return sg.headAt(level, vector)
}

// skipDead advances over nodes that are marked at level 0 or that checkRetire
// just marked (Alg. 5 lines 6–7 / Alg. 8 lines 5–6). Marked level references
// are immutable, so following them is always safe and terminates at the tail.
// It returns the first live node (nil when it runs into a never-linked
// reference; see scanLevel) plus the length of the dead chain it skipped —
// the relink-chain length if a relink CAS later bypasses that chain.
func (sg *SG[K, V]) skipDead(current *node.Node[K, V], level int, now int64, tr *stats.ThreadRecorder) (*node.Node[K, V], int) {
	skipped := 0
	for current != nil && (current.Marked(0, tr) || sg.checkRetire(current, now, tr)) {
		tr.Visit()
		current = current.Next(level, tr)
		skipped++
	}
	return current, skipped
}

// scanLevel performs one level's scan of a search: advance previous over
// live nodes with keys below the goal, returning (previous, middle, current).
//
// A reference can legitimately be nil here: when a non-lazy removal marks a
// node's upper levels while its finishInsert is still in flight, the insert
// aborts and the node keeps never-linked (nil) upper references — yet it
// stays unmarked at level 0 until the removal's final CAS, so local
// structures may briefly hand it out as a search start. Running into such a
// reference restarts the level from the head of the list the predecessor
// belongs to, which precedes every key and is always linked.
func (sg *SG[K, V]) scanLevel(key K, previous *node.Node[K, V], level int, vector uint32, now int64, tr *stats.ThreadRecorder) (prev, middle, current *node.Node[K, V], chain int) {
	for {
		originalCurrent := previous.Next(level, tr)
		cur, skipped := sg.skipDead(originalCurrent, level, now, tr)
		for cur != nil && cur.LessThan(key) {
			tr.Visit()
			previous = cur
			originalCurrent = previous.Next(level, tr)
			cur, skipped = sg.skipDead(originalCurrent, level, now, tr)
		}
		if cur == nil || originalCurrent == nil {
			previous = sg.listHeadFor(previous, level, vector)
			continue
		}
		return previous, originalCurrent, cur, skipped
	}
}

// LazyRelinkSearch is the paper's Alg. 5. Starting from `start` it descends
// the skip list selected by `vector`, filling res with, per level: the node
// that should precede key (Preds), the reference observed immediately after
// that predecessor when it was identified (Middles — the head of a possibly
// empty chain of marked references), and the first unmarked node with key' >=
// key (Succs). It returns true when Succs[0] is an unmarked node holding key.
//
// Along the way it retires invalid nodes whose commission period has expired
// (lazy protocol), and — under the non-lazy protocol, which cleans up at
// search time — physically unlinks each marked chain with a single CAS.
func (sg *SG[K, V]) LazyRelinkSearch(key K, start *node.Node[K, V], vector uint32, res *SearchResult[K, V], tr *stats.ThreadRecorder) bool {
	var now int64
	if sg.cfg.Lazy {
		now = sg.Now()
	}
	tr.Search()
	previous := sg.normalizeStart(start, vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		prev, originalCurrent, current, chain := sg.scanLevel(key, previous, level, vector, now, tr)
		previous = prev
		res.Preds[level] = previous
		res.Middles[level] = originalCurrent
		res.Succs[level] = current
		if originalCurrent != current {
			sg.unlinkChain(previous, originalCurrent, current, level, chain, tr)
		}
	}
	succ := res.Succs[0]
	return succ.KeyEquals(key) && !succ.Marked(0, tr)
}

// RetireSearch is the paper's Alg. 8: the streamlined search used by contains
// and remove. It does not keep per-level results; it returns the first
// unmarked node holding key found at any level, descending from the highest.
func (sg *SG[K, V]) RetireSearch(key K, start *node.Node[K, V], vector uint32, tr *stats.ThreadRecorder) (*node.Node[K, V], bool) {
	var now int64
	if sg.cfg.Lazy {
		now = sg.Now()
	}
	tr.Search()
	previous := sg.normalizeStart(start, vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		prev, originalCurrent, current, chain := sg.scanLevel(key, previous, level, vector, now, tr)
		previous = prev
		if originalCurrent != current {
			sg.unlinkChain(previous, originalCurrent, current, level, chain, tr)
		}
		if current.KeyEquals(key) && !current.Marked(0, tr) {
			return current, true
		}
	}
	return nil, false
}

// Spray performs a SprayList-style randomized descent of the skip list the
// vector selects: at each level it takes a random number of forward hops
// (0..width) before descending, landing near — but usually not exactly at —
// the front of the bottom list. It supports the relaxed priority queue the
// paper names as future work: contending consumers land on *different*
// near-minimal nodes instead of all fighting over the exact minimum.
func (sg *SG[K, V]) Spray(vector uint32, rng *rand.Rand, width int, tr *stats.ThreadRecorder) *node.Node[K, V] {
	previous := sg.Head(vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		for hops := rng.Intn(width + 1); hops > 0; hops-- {
			next := previous.Next(level, tr)
			if next == nil || next.Kind() == node.Tail {
				break
			}
			previous = next
		}
	}
	return previous
}

// unlinkChain handles a chain of marked references a search observed between
// previous and current at level. The non-lazy protocol unlinks it with a
// single CAS — the relink optimization outside insertions; failure just means
// someone else already cleaned up or the predecessor moved on. The lazy
// protocol performs no search-time cleanup itself: it hands the chain's head
// to the background maintenance engine, when one is attached, and otherwise
// the chain waits for an inserting substitution to bypass it.
func (sg *SG[K, V]) unlinkChain(previous, first, current *node.Node[K, V], level, chain int, tr *stats.ThreadRecorder) {
	if !sg.cfg.Lazy {
		if previous.CASNext(level, first, current, tr) {
			tr.Relink(chain)
		}
		return
	}
	if h := sg.hooks; h != nil && h.EnqueueRelink != nil && first.IsData() {
		h.EnqueueRelink(first)
	}
}

// checkRetire is the paper's Alg. 14: during searches on behalf of updates,
// an unmarked node that is invalid and whose commission period has expired is
// marked for physical removal. Returns true when this call marked the node.
//
// With background-maintenance hooks attached, the node is instead handed to
// the engine — during the commission period (so retirement happens off-path
// the moment the period ends, instead of waiting for the next search to
// stumble over the node) and after it. Only a rejected enqueue retires inline.
func (sg *SG[K, V]) checkRetire(n *node.Node[K, V], now int64, tr *stats.ThreadRecorder) bool {
	if !sg.cfg.Lazy || !n.IsData() {
		return false
	}
	marked, valid := n.MarkValid(0, tr)
	if marked || valid {
		return false
	}
	if now-n.AllocTS() <= int64(sg.cfg.CommissionPeriod) {
		// Still inside its commission period: physical removal is deferred so
		// a re-insertion of the key can revive the node in place.
		tr.Deferral()
		if h := sg.hooks; h != nil && h.EnqueueRetire != nil {
			h.EnqueueRetire(n, false)
		}
		return false
	}
	if cr := sg.cfg.CanRetire; cr != nil && !cr(n.DeadSeq()) {
		// A live snapshot predates this node's removal: it must stay
		// physically traversable until that snapshot closes. Requeue with the
		// unexpired deferrals so the engine retries once the gate opens.
		tr.Deferral()
		if h := sg.hooks; h != nil && h.EnqueueRetire != nil {
			h.EnqueueRetire(n, false)
		}
		return false
	}
	if h := sg.hooks; h != nil && h.EnqueueRetire != nil {
		// Only a successful enqueue may suppress inline retirement: a
		// rejected one (full queue, closed engine) falls back inline, so an
		// expired node can never become permanent garbage.
		if h.EnqueueRetire(n, true) {
			return false
		}
	}
	if !sg.Retire(n, tr) {
		return false
	}
	if h := sg.hooks; h != nil && h.EnterLimbo != nil {
		// An inline retirement bypassed the engine's executeRetire, the
		// usual limbo hand-off; hand the marked node over here or its slot
		// can never be reclaimed.
		h.EnterLimbo(n)
	}
	return true
}

// CleanupSearch descends toward key through the skip list `vector` selects,
// physically unlinking every chain of marked references it traverses with
// single relink CASes — the non-lazy protocol's search-time cleanup, run on
// any structure. The background maintenance engine runs it to unlink retired
// nodes off the critical path; a CAS that fails just means a concurrent
// inserting substitution or another cleanup already swung the predecessor.
//
// Above level 0, a retired node can also sit behind a live node of its own
// key: FinishInsert links a node in front of the successor its search
// observed, which may be a same-key node marked at level 0 but not yet at
// that level (DESIGN.md §6.2). A scan for key stops at the live node, so
// CleanupSearch also relinks the chain behind every live node holding key
// there. Level 0 never holds two nodes of one key (LinkLevel0 refuses).
func (sg *SG[K, V]) CleanupSearch(key K, vector uint32, res *SearchResult[K, V], tr *stats.ThreadRecorder) {
	var now int64
	if sg.cfg.Lazy {
		now = sg.Now()
	}
	tr.Search()
	previous := sg.Head(vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		prev, originalCurrent, current, chain := sg.scanLevel(key, previous, level, vector, now, tr)
		previous = prev
		res.Preds[level] = previous
		res.Middles[level] = originalCurrent
		res.Succs[level] = current
		if originalCurrent != current {
			if previous.CASNext(level, originalCurrent, current, tr) {
				tr.Relink(chain)
			}
		}
		for c := current; level > 0 && c.KeyEquals(key); {
			orig := c.Next(level, tr)
			next, chain := sg.skipDead(orig, level, now, tr)
			if next == nil {
				break // A never-linked reference (see scanLevel).
			}
			if orig != next && c.CASNext(level, orig, next, tr) {
				tr.Relink(chain)
			}
			c = next
		}
	}
}

// Unlinked reports whether n — a retired (marked) data node — is physically
// unreachable from the live structure: a search descending toward its key no
// longer crosses it at any of its levels, neither as an observed middle nor
// inside a chain of marked references. Marked references are immutable and
// lists stay key-ordered across marked nodes, so a targeted descent observes
// exactly the chains n could inhabit: the one in front of the first live node
// with key' >= key, and, above level 0, the run of nodes holding key from
// there on, where n sits when a node linked in front of it at that level
// holds its key (see CleanupSearch).
//
// The answer is instantaneous, not permanent: an in-flight FinishInsert that
// captured n as a successor before it was marked can still link it
// afterwards. The maintenance engine therefore re-verifies after every pin
// from before the first verification has been released (the two-phase limbo
// protocol) — once no such straggler can exist, an unreachable node can
// never become reachable again.
func (sg *SG[K, V]) Unlinked(n *node.Node[K, V], tr *stats.ThreadRecorder) bool {
	key := n.Key()
	vector := n.Vector()
	var now int64
	if sg.cfg.Lazy {
		now = sg.Now()
	}
	tr.Search()
	previous := sg.Head(vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		prev, originalCurrent, current, _ := sg.scanLevel(key, previous, level, vector, now, tr)
		previous = prev
		if level > n.TopLevel() {
			continue
		}
		for c := originalCurrent; c != nil && c != current; c = c.Next(level, tr) {
			if c == n {
				return false
			}
		}
		for c := current; level > 0 && c != nil && c.KeyEquals(key); c = c.Next(level, tr) {
			if c == n {
				return false
			}
		}
	}
	return true
}

// Retire is the paper's Alg. 15: atomically move the node from (unmarked,
// invalid) to (marked, invalid) at level 0 — the point of no return — then
// mark every upper level so those references freeze and chains of them can be
// relinked away. Returns false if the node was revived or already retired.
func (sg *SG[K, V]) Retire(n *node.Node[K, V], tr *stats.ThreadRecorder) bool {
	if !n.CASMarkValid(0, false, false, true, false, tr) {
		return false
	}
	for level := n.TopLevel(); level >= 1; level-- {
		for !n.Marked(level, tr) {
			n.CASMark(level, false, true, tr)
		}
	}
	if sg.retireObserver != nil {
		sg.retireObserver(n)
	}
	return true
}
