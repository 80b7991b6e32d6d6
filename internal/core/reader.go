package core

import (
	"cmp"
	"sort"

	"layeredsg/internal/epoch"
	"layeredsg/internal/local"
	"layeredsg/internal/node"
	"layeredsg/internal/stats"
)

// This file implements the heterogeneous-workload adaptation the paper
// sketches on p. 10: "searching (read-only) from another thread's local
// structure". Local structures are sequential, so other threads cannot read
// them directly; instead an owning thread *publishes* an immutable snapshot
// of its jump pointers (PublishJumpIndex), and read-only ReaderHandles jump
// through the best published pointer. Writers' fast paths are untouched —
// publication is explicit and costs one sorted copy.

// jumpEntry is one published key → shared-node pointer, with the life ID
// captured at publication so readers can reject recycled slots.
type jumpEntry[K cmp.Ordered, V any] struct {
	key K
	n   *node.Node[K, V]
	id  uint64
}

// jumpIndex is an immutable snapshot of one thread's ordered local view.
type jumpIndex[K cmp.Ordered, V any] struct {
	entries []jumpEntry[K, V]
}

// PublishJumpIndex snapshots this handle's ordered local structure (fully
// inserted, unmarked nodes only) for read-only consumers. Call it at any
// cadence; readers always use the latest published snapshot. The snapshot
// may go stale — readers re-validate every jump target before use.
func (h *Handle[K, V]) PublishJumpIndex() {
	entries := make([]jumpEntry[K, V], 0, h.ls.TreeLen())
	h.pin.Pin()
	h.ls.Ascend(func(key K, r local.Ref[K, V]) bool {
		if h.usable(r) && r.N.Inserted() {
			entries = append(entries, jumpEntry[K, V]{key: key, n: r.N, id: r.ID})
		}
		return true
	})
	h.pin.Unpin()
	h.m.jumps[h.thread].Store(&jumpIndex[K, V]{entries: entries})
}

// ReaderHandle is a read-only view of the map for threads that own no local
// structure (the paper's heterogeneous-workload readers). It jumps into the
// shared structure through the snapshots writer threads publish. Not safe
// for concurrent use; create one per reader goroutine.
type ReaderHandle[K cmp.Ordered, V any] struct {
	m  *Map[K, V]
	tr *stats.ThreadRecorder
	// pin is this reader's epoch-domain participant (nil for non-lazy
	// variants); held across each read so jump targets and traversed nodes
	// cannot be recycled mid-operation.
	pin *epoch.Pin
}

// ReaderHandle returns a read-only handle attributed to the given logical
// thread (for locality accounting).
func (m *Map[K, V]) ReaderHandle(thread int) *ReaderHandle[K, V] {
	var tr *stats.ThreadRecorder
	if m.cfg.Recorder != nil {
		tr = m.cfg.Recorder.ThreadRecorder(thread)
	}
	return &ReaderHandle[K, V]{m: m, tr: tr, pin: m.domain.Register()}
}

// jump returns the closest published shared node strictly preceding key that
// is observed unmarked (the linearizability requirement of DESIGN.md §6.1),
// or nil for a head start.
func (r *ReaderHandle[K, V]) jump(key K) *node.Node[K, V] {
	var best *node.Node[K, V]
	var bestKey K
	for t := range r.m.jumps {
		idx := r.m.jumps[t].Load()
		if idx == nil || len(idx.entries) == 0 {
			continue
		}
		entries := idx.entries
		i := sort.Search(len(entries), func(i int) bool { return !(entries[i].key < key) })
		// entries[i-1] is the floor strictly below key; walk back while the
		// snapshot entry has been retired (or its slot recycled) since
		// publication.
		for j := i - 1; j >= 0; j-- {
			n := entries[j].n
			if r.m.domain != nil {
				if !n.LiveAs(entries[j].id, r.tr) {
					continue
				}
			} else if n.Marked(0, r.tr) {
				continue
			}
			if best == nil || bestKey < entries[j].key {
				best, bestKey = n, entries[j].key
			}
			break
		}
	}
	return best
}

// Get returns the value stored under key.
func (r *ReaderHandle[K, V]) Get(key K) (V, bool) {
	r.tr.Op()
	r.pin.Pin()
	defer r.pin.Unpin()
	var zero V
	sg := r.m.sg
	found, ok := sg.RetireSearch(key, r.jump(key), 0, r.tr)
	if !ok {
		return zero, false
	}
	marked, valid := found.MarkValid(0, r.tr)
	if !marked && (valid || !sg.Lazy()) {
		return found.Value(), true
	}
	return zero, false
}

// Contains reports whether key is logically present.
func (r *ReaderHandle[K, V]) Contains(key K) bool {
	_, ok := r.Get(key)
	return ok
}
