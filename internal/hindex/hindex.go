// Package hindex implements the shared hash index layered over the skip
// graph: a concurrent hash table mapping key → shared node, so point
// operations (Get/Contains/Insert/Remove by key) from *any* stripe resolve
// their node in O(1) instead of descending the shared structure from a head
// tower. The ordered skip graph remains the source of truth for scans and
// predecessor queries. A lookup returns only a live life of the key (see
// "One slot per key"), and a miss can prove the key absent (see "Exact for
// presence").
//
// # Structure: flat sharded open addressing
//
// The index is a fixed power-of-two set of shards, each on its own cache
// lines. A shard is one open-addressed, linear-probing array of slots
// {hash, node, life ID}; every slot field is an atomic word. The top bits
// of a key's 64-bit hash pick the shard, the low bits the home slot, so a
// lookup is one shard-header load plus a probe that usually stays in one
// cache line of the array. Lookup allocates nothing and takes no lock,
// unless it meets an entry of an ended life to prune. Publish, Unpublish
// and the rehash take the shard's mutex.
//
// A slot claims a hash once and keeps it for the array's lifetime:
// unpublishing tombstones the slot (node = nil) and a later publish under
// the same hash reuses it in place. Once claimed slots (live plus
// tombstones) pass half the array, or tombstones outnumber half the live
// entries, the publisher rebuilds the shard into a fresh array holding only
// live entries, sized for them, and swaps it in. Tombstones therefore last
// until their shard's next rehash, and index memory tracks live keys rather
// than distinct keys ever: under key drift, claimed slots stay within 1.5
// times the live entries.
//
// # One slot per key
//
// The key lives in the node, not in the slot, so a probe that meets its
// hash checks the entry's node: LiveAs(id) first, then the key, so the key
// read belongs to a confirmed life. An entry that is not a live life of the
// key (a tombstone, a retired or recycled life, or another key's node under
// the same hash) is passed over, and the probe goes on to the free slot
// that ends the run; an entry of an ended life is pruned on the way.
// Publish gives a second key under a shared hash a slot of its own, so two
// keys never compete for one entry.
//
// An entry's node pointer and life ID are two independent atomic stores.
// Life IDs are drawn from a global counter and never reused (Arena.Free
// zeroes a slot's ID; reallocation publishes a fresh one), so a torn read
// that pairs one publish's pointer with another's ID can never validate:
// node.LiveAs(id) fails unless the pointer and ID belong to the same live,
// unmarked life. The confirmation holds while the caller's epoch pin does
// (or, where slots are never reclaimed, until the node is marked); the
// caller still linearizes on the node's marked/valid bits. A reader still
// probing an array that a rehash has replaced may miss an entry published
// since, but never returns another key's node.
//
// # Exact for presence
//
// Each shard keeps a count of pending inserts on a cache line of its own:
// an insert raises it (BeginInsert) before it can link a node and lowers it
// (EndInsert) once it has published that node, or revived one, or found the
// key present.
// Find proves a key absent when it read its shard's count as 0 before its
// probe and the probe then met no live life of the key before the free slot
// that ends the run. The argument:
//   - A node linked at level 0 before the count read 0 was published
//     before that read, since its insert raised the count before linking and
//     lowers it only after publishing.
//   - Once published, the entry stays until its life ends: a rehash copies
//     every live entry, a publish reuses only tombstones and entries of
//     ended lives, and only a retirement, a prune of an ended life, or an
//     unpublish after the node was marked tombstones one. Unpublish names
//     the life (node and life ID), so a stale caller cannot tombstone a
//     newer life of the same key under the same pointer.
//   - So a present key's entry is in every array loaded after the count
//     read 0, until its node is removed; a probe that finds none saw the key
//     absent at some instant within the lookup.
//
// The rule holds for every key type: hash folds -0.0 onto +0.0, the one
// float key with two bit patterns, and keys that share a hash each hold a
// slot of their own: key 0, whose hash is remapped to 1, and the integer
// key whose hash is 1, or two strings whose FNV-1a hashes collide.
package hindex

import (
	"cmp"
	"math"
	"sync"
	"sync/atomic"

	"layeredsg/internal/node"
	"layeredsg/internal/stats"
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
}

// New builds an empty index.
func New[K cmp.Ordered, V any]() *Index[K, V] {
	x := &Index[K, V]{}
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

// Lookup returns the life indexed for key, confirmed live and holding key
// (see "One slot per key"), or a nil node; tr records the read of each node
// the probe checks. A miss proves nothing: Lookup reads no pending count,
// which is what an insert about to link the key wants.
func (x *Index[K, V]) Lookup(key K, tr *stats.ThreadRecorder) (*node.Node[K, V], uint64) {
	n, id, _ := x.lookup(key, hash(key), false, tr)
	return n, id
}

// Find is Lookup for a read or a removal: absent reports that its miss
// proves key absent from the map (see "Exact for presence").
func (x *Index[K, V]) Find(key K, tr *stats.ThreadRecorder) (n *node.Node[K, V], id uint64, absent bool) {
	return x.lookup(key, hash(key), true, tr)
}

func (x *Index[K, V]) lookup(key K, h uint64, prove bool, tr *stats.ThreadRecorder) (*node.Node[K, V], uint64, bool) {
	s := x.shardOf(h)
	// The count is read before the array pointer: see "Exact for presence".
	quiet := prove && s.pending.Load() == 0
	tab := *s.tab.Load()
	mask := uint64(len(tab) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch tab[i].hash.Load() {
		case 0:
			return nil, 0, quiet
		case h:
			// The ID is read after the pointer: pairing a publish's pointer
			// with a later publish's ID fails LiveAs like any torn pair.
			n, id := tab[i].n.Load(), tab[i].id.Load()
			switch {
			case n == nil:
			case !n.LiveAs(id, tr):
				// A marked or recycled life the retire observer has not
				// reached yet: prune it, by life.
				x.unpublish(h, n, id)
			case n.Key() == key:
				return n, id, false
			}
		}
	}
}

// BeginInsert raises the pending count of key's shard. An insert calls it
// before it can link a node for key, so no Find in the shard proves absence
// until the matching EndInsert.
func (x *Index[K, V]) BeginInsert(key K) { x.shardOf(hash(key)).pending.Add(1) }

// EndInsert lowers the pending count BeginInsert raised, once the insert has
// published the node it linked, or revived one, or found the key present.
func (x *Index[K, V]) EndInsert(key K) { x.shardOf(hash(key)).pending.Add(-1) }

// Publish records key → (n, id). id must be the life ID the publisher
// observed on n at its linearization point (insert link, revive CAS). An
// entry already holding n takes the new ID. A live incumbent of key keeps
// its slot: at most one unmarked node per key exists at any instant, so it
// proves the caller's node is the stale one. Otherwise the entry goes to the
// first tombstone or ended life under key's hash, or claims the free slot
// that ends the run; another key's live entry under the same hash keeps
// its own slot.
func (x *Index[K, V]) Publish(key K, n *node.Node[K, V], id uint64) {
	x.publish(key, hash(key), n, id)
}

func (x *Index[K, V]) publish(key K, h uint64, n *node.Node[K, V], id uint64) {
	s := x.shardOf(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := *s.tab.Load()
	mask := uint64(len(tab) - 1)
	var reuse *slot[K, V]
	i := h & mask
	for ; tab[i].hash.Load() != 0; i = (i + 1) & mask {
		e := &tab[i]
		if e.hash.Load() != h {
			continue
		}
		switch cur := e.n.Load(); {
		case cur == n:
			s.publishes++
			e.id.Store(id)
			return
		case cur != nil && cur.LiveAs(e.id.Load(), nil):
			if cur.Key() == key {
				return
			}
			continue
		}
		if reuse == nil {
			reuse = e
		}
	}
	s.publishes++
	if reuse != nil {
		if reuse.n.Load() == nil {
			s.live++
		}
		reuse.id.Store(id)
		reuse.n.Store(n)
		return
	}
	e := &tab[i]
	e.id.Store(id)
	e.n.Store(n)
	e.hash.Store(h)
	s.used++
	s.live++
	if 2*s.used > len(tab) || 2*(s.used-s.live) > s.live+minSlots {
		s.rehash(tab)
	}
}

// Unpublish tombstones the entry holding life id of n, if key's run still
// has one (hygiene on retirement and on a removal's staleness). Naming the
// life, not only the node, keeps a stale caller from tombstoning a newer
// life that a recycled slot took under the same pointer.
func (x *Index[K, V]) Unpublish(key K, n *node.Node[K, V], id uint64) {
	x.unpublish(hash(key), n, id)
}

func (x *Index[K, V]) unpublish(h uint64, n *node.Node[K, V], id uint64) {
	s := x.shardOf(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	tab := *s.tab.Load()
	mask := uint64(len(tab) - 1)
	for i := h & mask; tab[i].hash.Load() != 0; i = (i + 1) & mask {
		if e := &tab[i]; e.n.Load() == n && e.id.Load() == id {
			e.n.Store(nil)
			s.live--
			s.unpublishes++
			return
		}
	}
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
		claim(tab, old[i].hash.Load(), n, id)
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

// Fill publishes nodes, each of a distinct key, into an empty index that no
// other goroutine can reach yet (a bulk load's last step), each under its
// key and current life ID. It sizes every shard's array once for its share,
// as a rehash would, so no publish during the fill rehashes.
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
		claim(*s.tab.Load(), h, n, n.ID())
		s.used++
		s.live++
		s.publishes++
	}
}

// claim writes (h, n, id) into the free slot that ends h's probe run, in an
// array no reader can reach yet. A claim past half an array rehashes it, so
// a free slot always ends the run.
func claim[K cmp.Ordered, V any](tab []slot[K, V], h uint64, n *node.Node[K, V], id uint64) {
	mask := uint64(len(tab) - 1)
	i := h & mask
	for tab[i].hash.Load() != 0 {
		i = (i + 1) & mask
	}
	tab[i].hash.Store(h)
	tab[i].n.Store(n)
	tab[i].id.Store(id)
}

func (x *Index[K, V]) shardOf(h uint64) *shard[K, V] {
	return &x.shards[h>>(64-shardBits)]
}

// hash maps a key to 64 well-mixed, nonzero bits: its Squeeze through a
// splitmix64 finalizer, so dense integer key spaces spread across shards and
// slots. -0.0 folds onto +0.0, which compares equal to it. 0 marks a free
// slot, so a key hashing to 0 shares hash 1.
func hash[K cmp.Ordered](key K) uint64 {
	var zero K
	if key == zero {
		key = zero
	}
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
