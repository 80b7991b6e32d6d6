// Package local implements the paper's thread-local "local structure": a
// sequential navigable map (internal/rbtree, the std::map counterpart).
//
// A local structure maps keys inserted by its owning thread to the
// corresponding shared nodes and provides ordered backward traversal for
// getStart/updateStart. The paper pairs the tree with a per-thread hash
// table for O(1) hits on the thread's own keys; here the shared hash index
// (internal/hindex) serves every point operation instead, so the tree is the
// whole local structure. Instances are strictly single-threaded.
//
// Entries are Refs, not bare pointers: a local structure outlives the nodes
// it indexes once epoch-based slot reclamation is active (the owner holds no
// pin between operations), so every entry carries the life ID captured when
// it was recorded and consumers must re-validate with node.LiveAs under a
// pin before dereferencing.
package local

import (
	"cmp"

	"layeredsg/internal/node"
	"layeredsg/internal/rbtree"
)

// Ref is one local-structure entry: a shared-node pointer plus the life ID
// it had when recorded. With reclamation active the slot behind N may be
// freed and recycled at any time; N may be dereferenced only under an epoch
// pin after node.LiveAs(ID) confirms the life still matches.
type Ref[K cmp.Ordered, V any] struct {
	N  *node.Node[K, V]
	ID uint64
}

// Structure is one thread's local structure.
type Structure[K cmp.Ordered, V any] struct {
	tree *rbtree.Tree[K, Ref[K, V]]
}

// Iterator walks the ordered view of the local structure.
type Iterator[K cmp.Ordered, V any] = rbtree.Iterator[K, Ref[K, V]]

// New returns an empty local structure.
func New[K cmp.Ordered, V any]() *Structure[K, V] {
	return &Structure[K, V]{tree: rbtree.New[K, Ref[K, V]]()}
}

// Put records the mapping key → shared node, capturing the node's current
// life ID.
func (s *Structure[K, V]) Put(key K, n *node.Node[K, V]) {
	s.tree.Set(key, Ref[K, V]{N: n, ID: n.ID()})
}

// Erase removes the mapping.
func (s *Structure[K, V]) Erase(key K) {
	s.tree.Delete(key)
}

// Below returns an iterator at the greatest entry with key' < key, possibly
// invalid, plus key's own entry if the structure holds one. This is the
// paper's getMaxLowerEqual made strict: a search seeded from the key's own
// node would start past that node and miss it.
func (s *Structure[K, V]) Below(key K) (it Iterator[K, V], own Ref[K, V], ok bool) {
	it = s.tree.Floor(key)
	if it.Valid() && it.Key() == key {
		return it.Prev(), it.Value(), true
	}
	return it, own, false
}

// TreeLen returns the number of entries.
func (s *Structure[K, V]) TreeLen() int { return s.tree.Len() }

// Ascend visits the entries in key order until fn returns false.
func (s *Structure[K, V]) Ascend(fn func(K, Ref[K, V]) bool) {
	s.tree.Ascend(fn)
}
