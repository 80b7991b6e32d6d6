package competitors

import (
	"cmp"
	"math/rand"
	"sync"
	"sync/atomic"

	"layeredsg/internal/node"
	"layeredsg/internal/stats"
)

// liveIndex is a *single-writer* skip-list index over the bottom data list:
// the design core of the No Hot Spot skip list [10], where update operations
// never touch the index and a background adaptation thread alone raises and
// lowers towers. Single-writer mutation means index maintenance performs no
// CAS at all — there is, literally, no hot spot — while concurrent readers
// traverse the towers through atomic pointers.
//
// NUMASK [11] instantiates one liveIndex per NUMA zone (each maintained and
// allocated by a thread of that zone), so reader traffic on index levels
// stays zone-local; No Hot Spot uses a single shared instance.
//
// Unlike the rotating skip list's contiguous wheel snapshots (rebuilt whole,
// see snapshot in competitors.go), a liveIndex is repaired *incrementally*:
// entries whose data nodes died are unlinked, and fresh data nodes get
// towers with geometric heights.
type liveIndex[K cmp.Ordered, V any] struct {
	// mu serializes adaptation passes (the background goroutine plus
	// test-driven Rebuild calls); readers never take it.
	mu     sync.Mutex
	height int
	head   *inode[K, V]
	owner  node.Owner
	rng    *rand.Rand
	nextID func() uint64
	// size counts base-level entries as of the last adaptation pass; read
	// concurrently by IndexLen.
	size atomic.Int64
}

// inode is one index tower. right pointers are written only by the
// maintenance goroutine and read by everyone (atomic publication).
type inode[K cmp.Ordered, V any] struct {
	key  K
	data *node.Node[K, V] // nil for the head sentinel
	id   uint64
	// right[l] is the successor tower at level l; nil terminates the level.
	right []atomic.Pointer[inode[K, V]]
}

func newLiveIndex[K cmp.Ordered, V any](height int, owner node.Owner, nextID func() uint64, seed int64) *liveIndex[K, V] {
	li := &liveIndex[K, V]{
		height: height,
		owner:  owner,
		rng:    rand.New(rand.NewSource(seed)),
		nextID: nextID,
	}
	li.head = &inode[K, V]{id: nextID(), right: make([]atomic.Pointer[inode[K, V]], height+1)}
	return li
}

// read records one reader touch of an index tower.
func (li *liveIndex[K, V]) read(n *inode[K, V], tr *stats.ThreadRecorder) {
	tr.Read(li.owner.Thread, li.owner.Node, n.id)
}

// lookup descends the towers and returns the data node of the greatest index
// entry with key' < key whose data node is observed unmarked, or nil.
// Reader-side only: no mutation.
func (li *liveIndex[K, V]) lookup(key K, tr *stats.ThreadRecorder) *node.Node[K, V] {
	cur := li.head
	for level := li.height; level >= 0; level-- {
		li.read(cur, tr)
		for {
			next := cur.right[level].Load()
			if next == nil || !(next.key < key) {
				break
			}
			cur = next
			li.read(cur, tr)
		}
	}
	// cur is the base-level floor. Its data node may have died since the
	// last adaptation pass; only an unmarked-at-observation node is a safe
	// jump target (frozen references can bypass newer inserts), so walk
	// backward through a fresh descent if needed — cheaper: give up and let
	// the caller fall back to the data-list head.
	if cur == li.head {
		return nil
	}
	if cur.data.Marked(0, tr) {
		return nil
	}
	return cur.data
}

// adapt runs one maintenance pass (single writer): drop towers whose data
// nodes are marked, and build towers for live data nodes not yet indexed, so
// that no run of stride live nodes lacks a tower. Returns the number of
// repairs.
func (li *liveIndex[K, V]) adapt(bottom *node.Node[K, V], stride int, tr *stats.ThreadRecorder) int {
	repairs := 0
	// preds[l] tracks the rightmost index tower at level l as we sweep the
	// data list left to right — classic merge-repair.
	preds := make([]*inode[K, V], li.height+1)
	for l := range preds {
		preds[l] = li.head
	}
	cursor := li.head.right[0].Load()
	size := int64(0)
	// since counts the live nodes passed since the last tower, kept or new;
	// sampling by it, not by a node's position among all live nodes, keeps
	// the density at one tower per stride nodes after removals shift the
	// positions of the towers that stay.
	since := stride
	for dn := bottom.RawNext(0); dn != nil && dn.Kind() != node.Tail; dn = dn.RawNext(0) {
		if dn.RawMarked(0) {
			continue
		}
		// Unlink index entries for dead or bypassed data nodes preceding dn.
		for cursor != nil && cursor.key < dn.Key() {
			cursor = li.unlink(preds, cursor)
			repairs++
		}
		if cursor != nil && cursor.key == dn.Key() {
			if cursor.data == dn && !dn.RawMarked(0) {
				// Still accurate: advance preds over it.
				cursor = li.advance(preds, cursor)
				size++
				since = 1
				continue
			}
			cursor = li.unlink(preds, cursor)
			repairs++
		}
		// Not indexed: sample.
		if since >= stride {
			li.insertAfter(preds, dn)
			size++
			repairs++
			since = 0
		}
		since++
	}
	// Anything left in the index is past the end of the live data.
	for cursor != nil {
		cursor = li.unlink(preds, cursor)
		repairs++
	}
	li.size.Store(size)
	_ = tr
	return repairs
}

// advance moves preds past tower t (which stays linked).
func (li *liveIndex[K, V]) advance(preds []*inode[K, V], t *inode[K, V]) *inode[K, V] {
	for l := 0; l < len(t.right); l++ {
		preds[l] = t
	}
	return t.right[0].Load()
}

// unlink splices tower t out at every level (single writer: plain ordered
// stores through atomic pointers).
func (li *liveIndex[K, V]) unlink(preds []*inode[K, V], t *inode[K, V]) *inode[K, V] {
	next := t.right[0].Load()
	for l := 0; l < len(t.right); l++ {
		succ := t.right[l].Load()
		if preds[l].right[l].Load() == t {
			preds[l].right[l].Store(succ)
		}
	}
	return next
}

// insertAfter links a fresh tower for dn after preds, with geometric height.
func (li *liveIndex[K, V]) insertAfter(preds []*inode[K, V], dn *node.Node[K, V]) {
	h := 0
	for h < li.height && li.rng.Int63()&1 == 0 {
		h++
	}
	t := &inode[K, V]{
		key:   dn.Key(),
		data:  dn,
		id:    li.nextID(),
		right: make([]atomic.Pointer[inode[K, V]], h+1),
	}
	for l := 0; l <= h; l++ {
		t.right[l].Store(preds[l].right[l].Load())
	}
	for l := 0; l <= h; l++ {
		preds[l].right[l].Store(t)
	}
	for l := 0; l <= h; l++ {
		preds[l] = t
	}
}

// Len returns the base-level entry count as of the last adaptation pass.
func (li *liveIndex[K, V]) Len() int { return int(li.size.Load()) }
