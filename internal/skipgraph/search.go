package skipgraph

import (
	"cmp"
	"math/rand"

	"layeredsg/internal/membership"
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

// searchClock is one search's reading of the structure clock, taken on
// first use: only checkRetire compares the time, and only for an unmarked
// invalid node, so a search that meets none never reads the clock.
type searchClock struct {
	now  int64
	read bool
}

// get returns the search's clock reading, reading clock on first use.
func (c *searchClock) get(clock func() int64) int64 {
	if !c.read {
		c.now, c.read = clock(), true
	}
	return c.now
}

// skipDead advances over nodes that are marked at level 0 or that checkRetire
// just marked (Alg. 5 lines 6–7 / Alg. 8 lines 5–6). Marked level references
// are immutable, so following them is always safe and terminates at the tail.
// It returns the first live node (nil when it runs into a never-linked
// reference; see scanLevel) plus the length of the dead chain it skipped —
// the relink-chain length if a relink CAS later bypasses that chain.
func (sg *SG[K, V]) skipDead(current *node.Node[K, V], level int, clk *searchClock, tr *stats.ThreadRecorder) (*node.Node[K, V], int) {
	skipped := 0
	for current != nil && (current.Marked(0, tr) || sg.checkRetire(current, clk, tr)) {
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
func (sg *SG[K, V]) scanLevel(key K, previous *node.Node[K, V], level int, vector uint32, clk *searchClock, tr *stats.ThreadRecorder) (prev, middle, current *node.Node[K, V], chain int) {
	for {
		originalCurrent := previous.Next(level, tr)
		cur, skipped := sg.skipDead(originalCurrent, level, clk, tr)
		for cur != nil && cur.LessThan(key) {
			tr.Visit()
			previous = cur
			originalCurrent = previous.Next(level, tr)
			cur, skipped = sg.skipDead(originalCurrent, level, clk, tr)
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
	var clk searchClock
	tr.Search()
	previous := sg.normalizeStart(start, vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		prev, originalCurrent, current, chain := sg.scanLevel(key, previous, level, vector, &clk, tr)
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
	var clk searchClock
	tr.Search()
	previous := sg.normalizeStart(start, vector)
	for level := sg.cfg.MaxLevel; level >= 0; level-- {
		previous = sg.descend(previous, level, vector)
		prev, originalCurrent, current, chain := sg.scanLevel(key, previous, level, vector, &clk, tr)
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
// protocol performs no search-time cleanup: the chain waits for an inserting
// substitution or the next RelinkAll to bypass it.
func (sg *SG[K, V]) unlinkChain(previous, first, current *node.Node[K, V], level, chain int, tr *stats.ThreadRecorder) {
	if !sg.cfg.Lazy && previous.CASNext(level, first, current, tr) {
		tr.Relink(chain)
	}
}

// checkRetire is the paper's Alg. 14: during searches on behalf of updates,
// an unmarked node that is invalid and whose commission period has expired is
// marked for physical removal. Returns true when this call marked the node.
func (sg *SG[K, V]) checkRetire(n *node.Node[K, V], clk *searchClock, tr *stats.ThreadRecorder) bool {
	if !sg.cfg.Lazy || !n.IsData() {
		return false
	}
	marked, valid := n.MarkValid(0, tr)
	if marked || valid {
		return false
	}
	if sg.InCommission(n, clk.get(sg.cfg.Clock)) {
		// Still inside its commission period: physical removal is deferred so
		// a re-insertion of the key can revive the node in place.
		tr.Deferral()
		return false
	}
	if cr := sg.cfg.CanRetire; cr != nil && !cr(n.DeadSeq()) {
		// A live snapshot predates this node's removal: it must stay
		// physically traversable until that snapshot closes.
		tr.Deferral()
		return false
	}
	return sg.Retire(n, tr)
}

// InCommission reports whether an invalid node is still inside its
// commission period at structure time now, when a re-insertion of its key
// may still revive it in place and retirement must wait.
func (sg *SG[K, V]) InCommission(n *node.Node[K, V], now int64) bool {
	return now-n.AllocTS() <= int64(sg.cfg.CommissionPeriod)
}

// RelinkAll is the reclamation walk: it walks level 0 once and, beside it,
// every list of every upper level, and relinks the chain of references to
// nodes marked at level 0 that follows each node it stands on with one
// relink CAS, as the non-lazy protocol's searches do. Every marked node a
// chain holds gets MaintMet: it was still linked when the walk met it. The
// walk reports each unmarked invalid data node it stands on at level 0 to
// dead. It records no instrumentation traffic.
//
// Each list's walk is sequential: it reads the reference of every node it
// reaches, marked or not, so a node retired while the walk is under way
// still has its frozen chain read. The upper lists' walks advance lazily, up
// to the key of the live level-0 node the walk stands on, which keeps the
// nodes they read warm in the cache. When that list does not hold the live
// node, the walk also relinks the chain behind the node's own reference: an
// upper-level relink can bypass a live node that was being linked there
// (DESIGN.md §6.2), and a search seeded from it still follows its stale
// reference. A retired node behind a live node of its own key above level 0
// sits in that live node's chain like any other.
//
// The cost is O(slots × levels) reads and one CAS per chain, whatever the
// number of retired nodes. A failed CAS means an insert or another relink
// swung the reference first; the chain's nodes are already marked met.
// Nodes are never freed during the walk (the caller frees only what an
// earlier walk proved unreachable), so it needs no epoch pin. It returns
// false when a list ran into a never-linked reference, which a lazy
// structure's lists never hold: the walk may then have missed part of that
// list, and its misses prove nothing.
func (sg *SG[K, V]) RelinkAll(dead func(n *node.Node[K, V])) bool {
	// at[level][label] is where that list's walk stands: the chains behind
	// every node before it are relinked.
	at := make([][]*node.Node[K, V], len(sg.heads))
	for level := 1; level < len(sg.heads); level++ {
		at[level] = append([]*node.Node[K, V](nil), sg.heads[level]...)
	}
	n := sg.heads[0][0]
	for n != nil && n.Kind() != node.Tail {
		if n.IsData() {
			marked, valid := n.RawMarkValid()
			if !marked && !valid {
				dead(n)
			}
			for level := 1; !marked && level <= n.TopLevel(); level++ {
				cur := &at[level][membership.ListLabel(n.Vector(), level)]
				for *cur != nil && (*cur).LessThan(n.Key()) {
					*cur = relinkAfter(*cur, level)
				}
				if *cur != n {
					relinkAfter(n, level)
				}
			}
		}
		n = relinkAfter(n, 0)
	}
	complete := n != nil
	for level := 1; level < len(at); level++ {
		for _, cur := range at[level] {
			for cur != nil && cur.Kind() != node.Tail {
				cur = relinkAfter(cur, level)
			}
			complete = complete && cur != nil
		}
	}
	return complete
}

// relinkAfter unlinks the chain of nodes marked at level 0 that follows p at
// level with one CAS, marking each of them met, and returns the node the
// chain ends at: an unmarked data node, the tail, or nil when the chain runs
// into a never-linked reference (a level p was never linked at), which
// leaves nothing to relink.
func relinkAfter[K cmp.Ordered, V any](p *node.Node[K, V], level int) *node.Node[K, V] {
	first := p.RawNext(level)
	cur := first
	for cur != nil && cur.IsData() && cur.RawMarked(0) {
		cur.TrySetMaint(node.MaintMet)
		cur = cur.RawNext(level)
	}
	if cur != nil && cur != first {
		p.CASNext(level, first, cur, nil)
	}
	return cur
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
