// Package local implements the paper's thread-local "local structure": a
// sequential ordered map from the keys a thread inserted to their shared
// nodes, which getStart/updateStart walk backward from a key to find a
// search's starting point. The paper uses a C++ std::map; this package keeps
// the map but gives it a B+tree's shape. A jump then reads a few lines of
// sorted keys per level and one line of values, instead of chasing one heap
// node per tree level, and the garbage collector traces one object per leaf
// instead of one per key.
//
// The paper pairs the map with a per-thread hash table for O(1) hits on the
// thread's own keys; here the shared hash index (internal/hindex) serves every
// point operation instead, so the ordered map is the whole local structure.
// Instances are strictly single-threaded.
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
)

// fanout is the capacity of every leaf and inner node, chosen by the
// BenchmarkLocalBelow sweep recorded in EXPERIMENTS.md ("A B+tree local
// structure"). A node other than the root holds at least fanout/4 entries
// once an erase has touched it.
const fanout = 64

// Ref is one local-structure entry: a shared-node pointer plus the life ID
// it had when recorded. With reclamation active the slot behind N may be
// freed and recycled at any time; N may be dereferenced only under an epoch
// pin after node.LiveAs(ID) confirms the life still matches.
type Ref[K cmp.Ordered, V any] struct {
	N  *node.Node[K, V]
	ID uint64
}

// block is a node's sorted run of keys and their items. The keys sit apart
// from the items, so a search reads key lines only.
type block[K cmp.Ordered, T any] struct {
	n     int
	keys  [fanout]K
	items [fanout]T
}

// leaf holds entries. Leaves are chained both ways in key order; an empty
// leaf other than the root is unlinked at once.
type leaf[K cmp.Ordered, V any] struct {
	block[K, Ref[K, V]]
	prev, next *leaf[K, V]
}

// inner routes a search. keys[i] is above every key under items[i-1] and at
// most every key under items[i]; keys[0] is such a bound for the whole node
// (unset on the tree's leftmost spine), so a node's first pair can move to a
// left sibling as is.
type inner[K cmp.Ordered, V any] struct {
	block[K, child[K, V]]
}

// child points at exactly one leaf or one inner node.
type child[K cmp.Ordered, V any] struct {
	lf *leaf[K, V]
	in *inner[K, V]
}

func (c child[K, V]) size() int {
	if c.lf != nil {
		return c.lf.n
	}
	return c.in.n
}

// Structure is one thread's local structure.
type Structure[K cmp.Ordered, V any] struct {
	root child[K, V]
	len  int
}

// New returns an empty local structure.
func New[K cmp.Ordered, V any]() *Structure[K, V] {
	return &Structure[K, V]{root: child[K, V]{lf: &leaf[K, V]{}}}
}

// Iterator is a position in the local structure. It keeps the entry it was
// made at, and Put or Erase never make it unsafe to use. The zero Iterator
// is invalid.
type Iterator[K cmp.Ordered, V any] struct {
	s   *Structure[K, V]
	lf  *leaf[K, V]
	i   int
	key K
	ref Ref[K, V]
}

// Valid reports whether the iterator was made at an entry.
func (it Iterator[K, V]) Valid() bool { return it.lf != nil }

// Key returns the key of the entry the iterator was made at.
func (it Iterator[K, V]) Key() K { return it.key }

// Value returns the entry the iterator was made at, even if it has since
// been erased.
func (it Iterator[K, V]) Value() Ref[K, V] { return it.ref }

// Prev returns an iterator at the greatest entry strictly below it.Key()
// present now (getPrev in the paper), or an invalid iterator. When the
// iterator's position no longer holds its key — the entry was erased, or a
// split or merge moved it — Prev finds the key's place again by a descent.
func (it Iterator[K, V]) Prev() Iterator[K, V] {
	if lf := it.lf; it.i < lf.n && lf.keys[it.i] == it.key {
		return it.s.at(lf, it.i-1)
	}
	prev, _, _ := it.s.Below(it.key)
	return prev
}

// at returns an iterator at entry i of lf, or at the previous leaf's last
// entry when i is -1.
func (s *Structure[K, V]) at(lf *leaf[K, V], i int) Iterator[K, V] {
	if i < 0 {
		if lf = lf.prev; lf == nil {
			return Iterator[K, V]{}
		}
		i = lf.n - 1
	}
	return Iterator[K, V]{s: s, lf: lf, i: i, key: lf.keys[i], ref: lf.items[i]}
}

// Put records the mapping key → shared node, capturing the node's current
// life ID.
func (s *Structure[K, V]) Put(key K, n *node.Node[K, V]) {
	right, sep := s.insert(s.root, key, Ref[K, V]{N: n, ID: n.ID()})
	if right == (child[K, V]{}) {
		return
	}
	root := &inner[K, V]{}
	root.n = 2
	root.items[0], root.items[1] = s.root, right
	root.keys[1] = sep
	s.root = child[K, V]{in: root}
}

// insert puts key → ref under c. When c splits, it returns the new right
// sibling and the separator bounding it.
func (s *Structure[K, V]) insert(c child[K, V], key K, ref Ref[K, V]) (right child[K, V], sep K) {
	if lf := c.lf; lf != nil {
		i, found := lf.find(key)
		if found {
			lf.items[i] = ref
			return
		}
		s.len++
		if lf.n < fanout {
			lf.insertAt(i, key, ref)
			return
		}
		nl := &leaf[K, V]{prev: lf, next: lf.next}
		if lf.next != nil {
			lf.next.prev = nl
		}
		lf.next = nl
		lf.splitInsert(&nl.block, i, key, ref)
		return child[K, V]{lf: nl}, nl.keys[0]
	}
	in := c.in
	i := in.route(key)
	if right, sep = s.insert(in.items[i], key, ref); right == (child[K, V]{}) {
		return
	}
	if in.n < fanout {
		in.insertAt(i+1, sep, right)
		return child[K, V]{}, sep
	}
	ni := &inner[K, V]{}
	in.splitInsert(&ni.block, i+1, sep, right)
	return child[K, V]{in: ni}, ni.keys[0]
}

// Erase removes the mapping.
func (s *Structure[K, V]) Erase(key K) {
	if !s.erase(s.root, key) {
		return
	}
	s.len--
	for s.root.in != nil && s.root.in.n == 1 {
		s.root = s.root.in.items[0]
	}
}

// erase removes key from the subtree under c, reporting whether it was
// there. c may be left under a quarter full for its parent to rebalance.
func (s *Structure[K, V]) erase(c child[K, V], key K) bool {
	if lf := c.lf; lf != nil {
		i, found := lf.find(key)
		if !found {
			return false
		}
		lf.removeAt(i)
		return true
	}
	in := c.in
	i := in.route(key)
	if !s.erase(in.items[i], key) {
		return false
	}
	if in.items[i].size() < fanout/4 {
		in.rebalance(i)
	}
	return true
}

// rebalance restores child i after it fell under a quarter full: the child
// merges with a neighbour or evens out with one, or, when it is empty and
// has no neighbour, it is dropped.
func (in *inner[K, V]) rebalance(i int) {
	if in.n == 1 {
		if in.items[0].size() == 0 {
			in.drop(0)
		}
		return
	}
	j := min(i, in.n-2) // the pair (j, j+1) holds child i
	a, b := in.items[j], in.items[j+1]
	var merged bool
	if a.lf != nil {
		merged = balance(&a.lf.block, &b.lf.block)
	} else {
		merged = balance(&a.in.block, &b.in.block)
	}
	switch {
	case merged:
		in.drop(j + 1)
	case b.lf != nil:
		in.keys[j+1] = b.lf.keys[0]
	default:
		in.keys[j+1] = b.in.keys[0]
	}
}

// drop removes child j, which is empty, unlinking it from the leaf chain if
// it is a leaf. Its count stays 0, so an iterator still holding it finds its
// key's place again by a descent.
func (in *inner[K, V]) drop(j int) {
	if lf := in.items[j].lf; lf != nil {
		if lf.prev != nil {
			lf.prev.next = lf.next
		}
		if lf.next != nil {
			lf.next.prev = lf.prev
		}
	}
	in.removeAt(j)
}

// Below returns an iterator at the greatest entry with key' < key, possibly
// invalid, plus key's own entry if the structure holds one. This is the
// paper's getMaxLowerEqual made strict: a search seeded from the key's own
// node would start past that node and miss it.
func (s *Structure[K, V]) Below(key K) (it Iterator[K, V], own Ref[K, V], ok bool) {
	c := s.root
	for c.lf == nil {
		c = c.in.items[c.in.route(key)]
	}
	lf := c.lf
	i, found := lf.find(key)
	if found {
		own, ok = lf.items[i], true
	}
	return s.at(lf, i-1), own, ok
}

// TreeLen returns the number of entries.
func (s *Structure[K, V]) TreeLen() int { return s.len }

// Ascend visits the entries in key order until fn returns false. fn must not
// change the structure.
func (s *Structure[K, V]) Ascend(fn func(K, Ref[K, V]) bool) {
	c := s.root
	for c.lf == nil {
		c = c.in.items[0]
	}
	for lf := c.lf; lf != nil; lf = lf.next {
		for i := 0; i < lf.n; i++ {
			if !fn(lf.keys[i], lf.items[i]) {
				return
			}
		}
	}
}

// find returns the index of the first key at or above key (n if none) and
// whether that key is key.
func (b *block[K, T]) find(key K) (int, bool) {
	lo, hi := 0, b.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < b.n && b.keys[lo] == key
}

// route returns the index of the child whose range holds key: the number of
// separators keys[1:n] at or below key.
func (in *inner[K, V]) route(key K) int {
	lo, hi := 1, in.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if in.keys[m] <= key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func (b *block[K, T]) insertAt(i int, key K, item T) {
	copy(b.keys[i+1:b.n+1], b.keys[i:b.n])
	copy(b.items[i+1:b.n+1], b.items[i:b.n])
	b.keys[i], b.items[i] = key, item
	b.n++
}

func (b *block[K, T]) removeAt(i int) {
	copy(b.keys[i:], b.keys[i+1:b.n])
	copy(b.items[i:], b.items[i+1:b.n])
	b.n--
	clear(b.keys[b.n : b.n+1])
	clear(b.items[b.n : b.n+1])
}

// moveTail moves b's last k pairs to the front of dst.
func (b *block[K, T]) moveTail(dst *block[K, T], k int) {
	copy(dst.keys[k:dst.n+k], dst.keys[:dst.n])
	copy(dst.items[k:dst.n+k], dst.items[:dst.n])
	copy(dst.keys[:k], b.keys[b.n-k:b.n])
	copy(dst.items[:k], b.items[b.n-k:b.n])
	clear(b.keys[b.n-k : b.n])
	clear(b.items[b.n-k : b.n])
	b.n -= k
	dst.n += k
}

// moveHead moves b's first k pairs to the end of dst.
func (b *block[K, T]) moveHead(dst *block[K, T], k int) {
	copy(dst.keys[dst.n:], b.keys[:k])
	copy(dst.items[dst.n:], b.items[:k])
	copy(b.keys[:], b.keys[k:b.n])
	copy(b.items[:], b.items[k:b.n])
	clear(b.keys[b.n-k : b.n])
	clear(b.items[b.n-k : b.n])
	b.n -= k
	dst.n += k
}

// splitInsert moves the upper part of a full b into its new right sibling r
// and inserts key → item at index i of the pair. An insert at b's right end
// leaves b full and starts r with the new pair alone, so monotone inserts
// fill nodes instead of leaving them half empty.
func (b *block[K, T]) splitInsert(r *block[K, T], i int, key K, item T) {
	mid := fanout / 2
	if i == fanout {
		mid = fanout
	}
	b.moveTail(r, fanout-mid)
	if i < mid {
		b.insertAt(i, key, item)
	} else {
		r.insertAt(i-mid, key, item)
	}
}

// balance moves all of b into its left neighbour a when they fit in one
// node, reporting true, and otherwise evens the two out.
func balance[K cmp.Ordered, T any](a, b *block[K, T]) bool {
	if a.n+b.n <= fanout {
		b.moveHead(a, b.n)
		return true
	}
	if d := (a.n - b.n) / 2; d > 0 {
		a.moveTail(b, d)
	} else {
		b.moveHead(a, -d)
	}
	return false
}
