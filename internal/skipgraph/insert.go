package skipgraph

import (
	"cmp"

	"layeredsg/internal/membership"
	"layeredsg/internal/node"
	"layeredsg/internal/stats"
)

// InsertHelper is the paper's Alg. 2. Given a shared node holding the goal
// key, it tries to finish an insert operation on the spot:
//
//   - lazy protocol: an unmarked valid node is a duplicate (failed insert,
//     case I-i); an unmarked invalid node is revived by atomically flipping
//     its valid bit (successful insert, case I-ii).
//   - non-lazy protocol: an unmarked node is a duplicate.
//
// done=false means the node turned out to be marked: the caller must clean
// its local structures and fall through to the lazy insertion path.
func (sg *SG[K, V]) InsertHelper(n *node.Node[K, V], tr *stats.ThreadRecorder) (done, inserted bool) {
	if !sg.cfg.Lazy {
		if !n.Marked(0, tr) {
			return true, false
		}
		return false, false
	}
	for {
		marked, valid := n.MarkValid(0, tr)
		if marked {
			return false, false
		}
		if valid {
			return true, false // Duplicate (I-i).
		}
		if n.CASMarkValid(0, false, false, false, true, tr) {
			return true, true // Flipped valid (I-ii).
		}
	}
}

// LinkLevel0 performs the bottom-level link of the paper's Alg. 3 lines
// 13–14: point the inserting node at Succs[0] and swing the predecessor's
// level-0 reference from the observed Middles[0] across any chain of marked
// references to the new node — the relink optimization. The store on the
// inserting node itself is raw (uninstrumented), the predecessor CAS is a
// maintenance CAS.
//
// It refuses, returning false without a CAS, when Succs[0] holds the
// inserted key: that node was marked after the search saw it unmarked, and
// linking in front of it would put two nodes of one key side by side at
// level 0. Every caller re-searches on false, and the fresh search skips the
// marked node, so level 0 stays strictly ordered (see Validate).
func (sg *SG[K, V]) LinkLevel0(res *SearchResult[K, V], toInsert *node.Node[K, V], tr *stats.ThreadRecorder) bool {
	if res.Succs[0].KeyEquals(toInsert.Key()) {
		return false
	}
	toInsert.RawStore(0, res.Succs[0], false, true)
	return res.Preds[0].CASNext(0, res.Middles[0], toInsert, tr)
}

// FinishInsert is the paper's Alg. 10: link an already-bottom-linked node at
// levels 1..topLevel of its associated skip list. `start` seeds the search
// (it must share the node's membership vector to be useful; incompatible or
// nil starts fall back to the head of the node's skip list). restart, when
// non-nil, supplies a fresh start after a failed level CAS (the layered map
// passes updateStart); res is caller-provided scratch.
//
// Returns false if the node was marked before all levels could be linked; in
// either case the node's inserted flag is set when this call stops working on
// it, so the layered map never retries a finished or doomed node.
func (sg *SG[K, V]) FinishInsert(toInsert, start *node.Node[K, V], restart func() *node.Node[K, V], res *SearchResult[K, V], tr *stats.ThreadRecorder) bool {
	key := toInsert.Key()
	vector := toInsert.Vector()
	if start != nil && start.IsData() && start.Vector() != vector {
		// A start in a different skip list would yield predecessors in lists
		// this node does not belong to.
		start = sg.Head(vector)
	}
	if !sg.LazyRelinkSearch(key, start, vector, res, tr) || res.Succs[0] != toInsert {
		// The node was marked (or superseded by a fresh node with the same
		// key) before we could locate it unmarked. Setting the inserted flag
		// here keeps the doc contract above: a claimed finish that aborts must
		// still leave the flag set, or reclamation could wait forever on a
		// "mid-flight" finisher that already returned.
		toInsert.MarkInserted()
		return false
	}
	level := 1
	for level <= toInsert.TopLevel() {
		if res.Succs[level] == toInsert {
			// Already linked at this level: the search found the node itself
			// as the first unmarked node at key. (Defense in depth for the
			// finish claim — without this guard a racing finisher could point
			// the node at itself.)
			level++
			continue
		}
		// Point the inserting node at this level's successor. Raw accessors:
		// operations on one's own inserting node are excluded from metrics.
		oldSucc := toInsert.RawNext(level)
		for !toInsert.RawCASNext(level, oldSucc, res.Succs[level]) {
			if toInsert.RawMarked(level) {
				// Marked mid-linking: abort (Alg. 10 lines 10–12).
				toInsert.MarkInserted()
				return false
			}
			oldSucc = toInsert.RawNext(level)
		}
		if !res.Preds[level].CASNext(level, res.Middles[level], toInsert, tr) {
			// Predecessor moved on: re-search from a fresh start and retry
			// this level (Alg. 10 lines 13–16).
			var fresh *node.Node[K, V]
			if restart != nil {
				fresh = restart()
			}
			if fresh != nil && fresh.IsData() && fresh.Vector() != vector {
				fresh = sg.Head(vector)
			}
			if !sg.LazyRelinkSearch(key, fresh, vector, res, tr) || res.Succs[0] != toInsert {
				toInsert.MarkInserted()
				return false
			}
			continue
		}
		level++
	}
	toInsert.MarkInserted()
	return true
}

// Appender builds nodes into a structure that no other goroutine can reach
// yet, in strictly increasing key order: each node goes behind the last node
// of every list it joins, with unconditional stores instead of a search and
// CASes. It is the bulk-load path (internal/core's Build); once the
// structure is shared, only the insert protocol may link nodes.
type Appender[K cmp.Ordered, V any] struct {
	sg *SG[K, V]
	// now is every appended node's allocation timestamp, read once: the
	// nodes of one bulk load are born together.
	now int64
	// last[level][label] is the node the next append to that list goes
	// behind: the list's head until its first append.
	last [][]*node.Node[K, V]
}

// NewAppender starts appending to an empty structure.
func (sg *SG[K, V]) NewAppender() *Appender[K, V] {
	a := &Appender[K, V]{sg: sg, now: sg.Now(), last: make([][]*node.Node[K, V], len(sg.heads))}
	for level := range sg.heads {
		a.last[level] = append([]*node.Node[K, V](nil), sg.heads[level]...)
	}
	return a
}

// Append allocates a node as NewNode does, for a key above every key
// appended before, links it at levels 0..topLevel of the lists its vector
// selects and marks it inserted. Every reference it writes is unmarked and
// valid: the node is present, and so is the node it goes behind.
func (a *Appender[K, V]) Append(key K, value V, vector uint32, owner node.Owner, topLevel int) *node.Node[K, V] {
	n := a.sg.arena.NewData(key, value, topLevel, vector, owner, a.sg.nextID.Add(1), a.now)
	for level := 0; level <= topLevel; level++ {
		last := &a.last[level][membership.ListLabel(vector, level)]
		n.RawStore(level, a.sg.tail, false, true)
		(*last).RawStore(level, n, false, true)
		*last = n
	}
	n.MarkInserted()
	return n
}
