// Package hindex implements the shared hash index layered over the skip
// graph: a concurrent hash table mapping key → shared node, so point
// operations (Get/Contains/Insert/Remove by key) from *any* stripe resolve
// their node in O(1) instead of descending the shared structure from a head
// tower. The ordered skip graph remains the source of truth for scans and
// predecessor queries. Every node the index returns must be re-verified (see
// "Fail-closed hits"); a miss on an integer key can prove the key absent
// (see "Exact for presence").
//
// # Structure: flat sharded open addressing
//
// The index is a fixed power-of-two set of shards, each on its own cache
// lines. A shard is one open-addressed, linear-probing array of slots
// {hash, node, life ID}; every slot field is an atomic word. The top bits
// of a key's 64-bit hash pick the shard, the low bits the home slot, so a
// lookup is one shard-header load plus a probe that usually stays in one
// cache line of the array. Lookup takes no lock and allocates nothing.
// Publish, Unpublish and the rehash take the shard's mutex.
//
// Slots hold the hash, not the key. A slot claims its hash once and keeps
// it for the array's lifetime: unpublishing tombstones the slot (node = nil)
// and a later publish under the same hash revives it in place. Once claimed
// slots (live plus tombstones) pass half the array, or tombstones outnumber
// half the live entries, the publisher rebuilds the shard into a fresh array
// holding only live entries, sized for them, and swaps it in. Tombstones
// therefore last until their shard's next rehash, and index memory tracks
// live keys rather than distinct keys ever: under key drift, claimed slots
// stay within 1.5 times the live entries.
//
// # Fail-closed hits
//
// Two keys sharing a 64-bit hash share a slot, and a slot's node pointer and
// life ID are written as two independent atomic stores. Life IDs are drawn
// from a global counter and never reused (Arena.Free zeroes a slot's ID;
// reallocation publishes a fresh one), so a torn read that pairs one
// publish's pointer with another's ID can never validate: node.LiveAs(id)
// fails unless the pointer and ID belong to the same live, unmarked life.
// Consumers must therefore gate every use on LiveAs under an epoch pin (or
// on the node's marked bit when the structure never reclaims slots), then
// check that the node holds the key they asked for, and treat any failure
// like a miss that proves nothing. A reader still probing an array that a
// rehash has replaced may miss an entry published since, but every node it
// can return was published under the key's hash.
//
// # Exact for presence
//
// Each shard keeps a count of pending inserts on a cache line of its own:
// an insert raises it (BeginInsert) before it can link a node and lowers it
// (EndInsert) once it has published that node, or revived one, or found the
// key present.
// Find proves a key absent when it read its shard's count as 0 before its
// probe and the probe then met a free or tombstoned slot. The argument:
//   - A node linked at level 0 before the count read 0 was published
//     before that read, since its insert raised the count before linking and
//     lowers it only after publishing.
//   - Once published, the entry stays until its life ends: a rehash copies
//     every live entry, and only a retirement, a prune of a marked or
//     recycled life, or an unpublish after the node was marked tombstones
//     one. Unpublish names the life (node and life ID), so a stale prune
//     cannot tombstone a newer life of the same key under the same pointer.
//   - So a present key's entry is in every array loaded after the count
//     read 0, until its node is removed; a probe that finds none saw the key
//     absent at some instant within the lookup.
//
// Only keys whose hash is injective get proofs: the integer types, whose
// Squeeze keeps their bits and whose splitmix64 finalizer is a bijection.
// Floats do not (+0.0 and -0.0 are one key with two bit patterns), strings
// do not (FNV-1a collides), nor does hash 1, which the key hashing to 0
// shares. Their misses prove nothing.
package hindex

import (
	"cmp"
	"math"
	"sync"
	"sync/atomic"

	"layeredsg/internal/node"
)

const (
	// shardBits sets the shard count; the top shardBits of a hash pick the
	// shard.
	shardBits = 5
	nShards   = 1 << shardBits
	// minSlots is a shard's smallest array. Must be a power of two.
	minSlots = 8
	// cacheLine pads shard headers apart.
	cacheLine = 64
)

// slot is one array cell. hash is 0 while the slot is free and set once
// when a publish claims it; n is nil while free or tombstoned.
type slot[K cmp.Ordered, V any] struct {
	hash atomic.Uint64
	n    atomic.Pointer[node.Node[K, V]]
	id   atomic.Uint64
}

// shard keeps the array pointer readers load and the pending count inserts
// write on cache lines of their own, apart from the mutex and counters
// publishers write.
type shard[K cmp.Ordered, V any] struct {
	tab atomic.Pointer[[]slot[K, V]]
	_   [cacheLine - 8]byte
	// pending counts inserts between BeginInsert and EndInsert.
	pending atomic.Int64
	_       [cacheLine - 8]byte
	mu      sync.Mutex
	// used counts claimed slots (live plus tombstones) and live those
	// holding a node; publishes and unpublishes count the entries written
	// and tombstoned. All four are guarded by mu.
	used, live             int
	publishes, unpublishes uint64
	_                      [cacheLine - 40]byte
}

// Index is the shared hash index. All methods are safe for concurrent use.
type Index[K cmp.Ordered, V any] struct {
	shards [nShards]shard[K, V]
	// exact says K's hash is injective, so Find may prove absence.
	exact bool
}

// New builds an empty index.
func New[K cmp.Ordered, V any]() *Index[K, V] {
	x := &Index[K, V]{exact: injective[K]()}
	for i := range x.shards {
		tab := make([]slot[K, V], minSlots)
		x.shards[i].tab.Store(&tab)
	}
	return x
}

// Stats summarizes the index's activity and size.
type Stats struct {
	// Publishes counts entries written (installed, revived or refreshed,
	// bulk fills included); Unpublishes counts entries tombstoned.
	Publishes   uint64 `json:"publishes"`
	Unpublishes uint64 `json:"unpublishes"`
	// Entries counts claimed slots: live entries plus the tombstones left
	// until their shard's next rehash.
	Entries int64 `json:"entries"`
	// Slots is the summed array capacity of all shards.
	Slots int64 `json:"slots"`
}

// Stats snapshots the index's counters.
func (x *Index[K, V]) Stats() Stats {
	var st Stats
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		st.Publishes += s.publishes
		st.Unpublishes += s.unpublishes
		st.Entries += int64(s.used)
		st.Slots += int64(len(*s.tab.Load()))
		s.mu.Unlock()
	}
	return st
}

// Lookup returns the node and life ID indexed under key's hash. A true ok
// only means a non-tombstoned entry existed: the caller owns re-validation
// (node.LiveAs under a pin, or the marked bit when slots are never
// reclaimed) and the key check, and must treat a failure like a miss. A miss
// proves nothing; Lookup reads no pending count, which is what an insert
// about to link the key wants.
func (x *Index[K, V]) Lookup(key K) (*node.Node[K, V], uint64, bool) {
	n, id, _ := x.lookup(hash(key), false)
	return n, id, n != nil
}

// Find is Lookup for a read or a removal: a nil node is a miss, and absent
// reports that the miss proves key absent from the map (see "Exact for
// presence"). A returned node needs Lookup's checks.
func (x *Index[K, V]) Find(key K) (n *node.Node[K, V], id uint64, absent bool) {
	return x.lookup(hash(key), x.exact)
}

func (x *Index[K, V]) lookup(h uint64, prove bool) (*node.Node[K, V], uint64, bool) {
	s := x.shardOf(h)
	// The count is read before the array pointer: see "Exact for presence".
	quiet := prove && h != 1 && s.pending.Load() == 0
	e, claimed := probe(*s.tab.Load(), h)
	if claimed {
		// The ID is read after the pointer: pairing a publish's pointer with
		// a later publish's ID fails LiveAs like any torn pair.
		if n := e.n.Load(); n != nil {
			return n, e.id.Load(), false
		}
	}
	return nil, 0, quiet
}

// BeginInsert raises the pending count of key's shard. An insert calls it
// before it can link a node for key, so no Find in the shard proves absence
// until the matching EndInsert.
func (x *Index[K, V]) BeginInsert(key K) { x.shardOf(hash(key)).pending.Add(1) }

// EndInsert lowers the pending count BeginInsert raised, once the insert has
// published the node it linked, or revived one, or found the key present.
func (x *Index[K, V]) EndInsert(key K) { x.shardOf(hash(key)).pending.Add(-1) }

// Publish records key → (n, id), claiming or reviving the slot for key's
// hash. id must be the life ID the publisher observed on n at its
// linearization point (insert link, revive CAS). A live incumbent keeps the
// slot: at most one unmarked node per key exists at any instant, so it
// proves the caller's node is the stale one — or it holds another key with
// the same hash, which the consumer's key check turns into misses.
func (x *Index[K, V]) Publish(key K, n *node.Node[K, V], id uint64) {
	x.publish(hash(key), n, id)
}

func (x *Index[K, V]) publish(h uint64, n *node.Node[K, V], id uint64) {
	s := x.shardOf(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := *s.tab.Load()
	e, claimed := probe(tab, h)
	if claimed {
		cur := e.n.Load()
		switch {
		case cur == n:
			s.publishes++
			e.id.Store(id)
			return
		case cur == nil:
			s.live++
		case cur.LiveAs(e.id.Load(), nil):
			return
		}
		s.publishes++
		e.id.Store(id)
		e.n.Store(n)
		return
	}
	s.publishes++
	e.id.Store(id)
	e.n.Store(n)
	e.hash.Store(h)
	s.used++
	s.live++
	if 2*s.used > len(tab) || 2*(s.used-s.live) > s.live+minSlots {
		s.rehash(tab)
	}
}

// Unpublish tombstones key's entry if it still holds life id of n (hygiene
// on retirement and on reader-detected staleness). Naming the life, not only
// the node, keeps a stale caller from tombstoning a newer life that a
// recycled slot took under the same pointer.
func (x *Index[K, V]) Unpublish(key K, n *node.Node[K, V], id uint64) {
	x.unpublish(hash(key), n, id)
}

func (x *Index[K, V]) unpublish(h uint64, n *node.Node[K, V], id uint64) {
	s := x.shardOf(h)
	s.mu.Lock()
	if e, claimed := probe(*s.tab.Load(), h); claimed && e.n.Load() == n && e.id.Load() == id {
		e.n.Store(nil)
		s.live--
		s.unpublishes++
	}
	s.mu.Unlock()
}

// rehash rebuilds the shard from old's live entries into an array at most
// a third full, dropping tombstones and entries whose node has retired.
// Readers still probing old keep a consistent, frozen view. Caller holds
// s.mu.
func (s *shard[K, V]) rehash(old []slot[K, V]) {
	tab := make([]slot[K, V], slotsFor(s.live))
	live := 0
	for i := range old {
		n, id := old[i].n.Load(), old[i].id.Load()
		if n == nil || !n.LiveAs(id, nil) {
			continue
		}
		h := old[i].hash.Load()
		e, _ := probe(tab, h)
		e.hash.Store(h)
		e.n.Store(n)
		e.id.Store(id)
		live++
	}
	s.used, s.live = live, live
	s.tab.Store(&tab)
}

// slotsFor sizes a shard array for live entries: at most a third full.
func slotsFor(live int) int {
	size := minSlots
	for size < 3*live {
		size <<= 1
	}
	return size
}

// Fill publishes nodes into an empty index that no other goroutine can reach
// yet (a bulk load's last step), each under its key and current life ID. It
// sizes every shard's array once for its share, as a rehash would, so no
// publish during the fill rehashes. Of two keys sharing a hash, the first
// keeps the slot.
func (x *Index[K, V]) Fill(nodes []*node.Node[K, V]) {
	var share [nShards]int
	for _, n := range nodes {
		share[hash(n.Key())>>(64-shardBits)]++
	}
	for i := range x.shards {
		tab := make([]slot[K, V], slotsFor(share[i]))
		x.shards[i].tab.Store(&tab)
	}
	for _, n := range nodes {
		h := hash(n.Key())
		s := x.shardOf(h)
		e, claimed := probe(*s.tab.Load(), h)
		if claimed {
			continue
		}
		e.id.Store(n.ID())
		e.n.Store(n)
		e.hash.Store(h)
		s.used++
		s.live++
		s.publishes++
	}
}

// probe returns the slot holding h (claimed) or the free slot that ends
// h's probe run. A claim past half an array rehashes it, so a free slot
// always ends the run.
func probe[K cmp.Ordered, V any](tab []slot[K, V], h uint64) (*slot[K, V], bool) {
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch tab[i].hash.Load() {
		case h:
			return &tab[i], true
		case 0:
			return &tab[i], false
		}
	}
}

func (x *Index[K, V]) shardOf(h uint64) *shard[K, V] {
	return &x.shards[h>>(64-shardBits)]
}

// hash maps a key to 64 well-mixed, nonzero bits: its Squeeze through a
// splitmix64 finalizer, so dense integer key spaces spread across shards and
// slots. 0 marks a free slot, so a key hashing to 0 shares hash 1.
func hash[K cmp.Ordered](key K) uint64 {
	h := Squeeze(key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// injective reports whether hash is injective on K up to its remap of 0:
// true for the integer types, whose Squeeze keeps every bit.
func injective[K cmp.Ordered]() bool {
	switch any(*new(K)).(type) {
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, uintptr:
		return true
	}
	return false
}

// Squeeze maps a key to 64 bits without allocating (the pointer type switch
// avoids boxing): integer and float keys keep their bit patterns, strings
// are FNV-1a hashed, and any other type yields 0. Trace events record keys
// this way too.
func Squeeze[K cmp.Ordered](key K) uint64 {
	switch k := any(&key).(type) {
	case *int:
		return uint64(*k)
	case *int8:
		return uint64(*k)
	case *int16:
		return uint64(*k)
	case *int32:
		return uint64(*k)
	case *int64:
		return uint64(*k)
	case *uint:
		return uint64(*k)
	case *uint8:
		return uint64(*k)
	case *uint16:
		return uint64(*k)
	case *uint32:
		return uint64(*k)
	case *uint64:
		return *k
	case *uintptr:
		return uint64(*k)
	case *float32:
		return uint64(math.Float32bits(*k))
	case *float64:
		return math.Float64bits(*k)
	case *string:
		h := uint64(14695981039346656037)
		for i := 0; i < len(*k); i++ {
			h ^= uint64((*k)[i])
			h *= 1099511628211
		}
		return h
	}
	return 0
}
