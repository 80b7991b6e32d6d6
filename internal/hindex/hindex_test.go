package hindex

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"layeredsg/internal/node"
)

// testArena backs the int64 nodes these unit tests publish.
var testArena = node.NewArena[int64, int64](1, 1)

// newNode allocates a data node with a given life ID.
func newNode(key int64, id uint64) *node.Node[int64, int64] {
	return testArena.NewData(key, key, 0, 0, node.Owner{}, id, 0)
}

// retire marks n's level-0 reference, as a lazy retirement does: LiveAs
// fails from then on.
func retire(n *node.Node[int64, int64]) { n.RawStore(0, nil, true, false) }

// hashOne is the int64 key whose splitmix64 finalizer is 1: it shares hash
// 1 with key 0, whose finalizer is 0 (internal/core's unmix derives it).
const hashOne = -7607213358146402862

// rehashAll rebuilds every shard, as a claim past half its array would.
func rehashAll(x *Index[int64, int64]) {
	for i := range x.shards {
		s := &x.shards[i]
		s.mu.Lock()
		s.rehash(*s.tab.Load())
		s.mu.Unlock()
	}
}

// checkLayout asserts the open-addressing invariants of every shard: each
// claimed hash belongs to its shard and is reachable from its home slot
// without crossing a free slot; no two entries hold one node, nor two live
// entries one key; the counters match the array; and a free slot remains.
func checkLayout(t *testing.T, x *Index[int64, int64]) {
	t.Helper()
	for si := range x.shards {
		s := &x.shards[si]
		s.mu.Lock()
		tab := *s.tab.Load()
		mask := uint64(len(tab) - 1)
		used, live := 0, 0
		nodes := map[*node.Node[int64, int64]]bool{}
		keys := map[int64]bool{}
		for i := range tab {
			h := tab[i].hash.Load()
			if h == 0 {
				if tab[i].n.Load() != nil {
					t.Errorf("shard %d slot %d: node in a free slot", si, i)
				}
				continue
			}
			used++
			if n := tab[i].n.Load(); n != nil {
				live++
				if nodes[n] {
					t.Errorf("shard %d: node of key %d in two slots", si, n.Key())
				}
				nodes[n] = true
				if n.LiveAs(tab[i].id.Load(), nil) {
					if keys[n.Key()] {
						t.Errorf("shard %d: key %d has two live entries", si, n.Key())
					}
					keys[n.Key()] = true
				}
			}
			if x.shardOf(h) != s {
				t.Errorf("shard %d slot %d: hash %#x belongs to another shard", si, i, h)
			}
			for j := h & mask; j != uint64(i); j = (j + 1) & mask {
				if tab[j].hash.Load() == 0 {
					t.Errorf("shard %d: hash %#x at slot %d is cut off from home slot %d", si, h, i, h&mask)
					break
				}
			}
		}
		if used != s.used || live != s.live {
			t.Errorf("shard %d: counters used=%d live=%d, array holds %d and %d", si, s.used, s.live, used, live)
		}
		if 2*used > len(tab) {
			t.Errorf("shard %d: %d of %d slots claimed", si, used, len(tab))
		}
		s.mu.Unlock()
	}
}

func TestPublishLookupRoundTrip(t *testing.T) {
	x := New[int64, int64]()
	const keys = 1000
	nodes := make([]*node.Node[int64, int64], keys)
	for k := int64(0); k < keys; k++ {
		nodes[k] = newNode(k, uint64(k+1))
		x.Publish(k, nodes[k], uint64(k+1))
	}
	for k := int64(0); k < keys; k++ {
		if n, id := x.Lookup(k, nil); n != nodes[k] || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) = (%p, %d), want (%p, %d)", k, n, id, nodes[k], k+1)
		}
	}
	if n, _ := x.Lookup(keys+1, nil); n != nil {
		t.Fatal("Lookup of an unpublished key returned a node")
	}
	if st := x.Stats(); st.Entries != keys {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, keys)
	}
}

func TestUnpublishTombstonesAndRevives(t *testing.T) {
	x := New[int64, int64]()
	n1 := newNode(7, 1)
	x.Publish(7, n1, 1)
	x.Unpublish(7, n1, 1)
	if n, _ := x.Lookup(7, nil); n != nil {
		t.Fatal("Lookup found a tombstoned entry")
	}
	// A republish revives the same slot in place.
	before := x.Stats().Entries
	n2 := newNode(7, 2)
	x.Publish(7, n2, 2)
	if got := x.Stats().Entries; got != before {
		t.Fatalf("republish claimed a new slot: Entries %d -> %d", before, got)
	}
	if n, id := x.Lookup(7, nil); n != n2 || id != 2 {
		t.Fatalf("Lookup(7) after republish = (%p, %d), want n2", n, id)
	}
	// Unpublish with a stale node must not clobber the newer publish.
	x.Unpublish(7, n1, 1)
	if n, _ := x.Lookup(7, nil); n != n2 {
		t.Fatal("stale Unpublish clobbered a newer publish")
	}
}

func TestPublishKeepsLiveIncumbent(t *testing.T) {
	x := New[int64, int64]()
	live := newNode(3, 10) // unmarked: LiveAs(10) holds
	x.Publish(3, live, 10)
	// A laggard publish from a previous life must lose to the live incumbent.
	x.Publish(3, newNode(3, 4), 4)
	if n, id := x.Lookup(3, nil); n != live || id != 10 {
		t.Fatalf("Lookup(3) = (%p, %d), want the live incumbent", n, id)
	}
	// Once the incumbent is retired (marked), a new publish wins.
	retire(live)
	next := newNode(3, 11)
	x.Publish(3, next, 11)
	if n, id := x.Lookup(3, nil); n != next || id != 11 {
		t.Fatalf("Lookup(3) after retire = (%p, %d), want the new life", n, id)
	}
	if st := x.Stats(); st.Entries != 1 {
		t.Fatalf("the new life claimed a second slot: Entries = %d", st.Entries)
	}
}

func TestGrowthKeepsAllEntriesReachable(t *testing.T) {
	x := New[int64, int64]()
	const keys = nShards * minSlots * 64 // forces several rehashes per shard
	for k := int64(0); k < keys; k++ {
		x.Publish(k, newNode(k, uint64(k+1)), uint64(k+1))
	}
	if st := x.Stats(); st.Slots < 2*keys {
		t.Fatalf("Stats.Slots = %d for %d entries, want at least twice as many", st.Slots, keys)
	}
	for k := int64(0); k < keys; k++ {
		if n, id := x.Lookup(k, nil); n == nil || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) after growth = (%p, id=%d)", k, n, id)
		}
	}
	checkLayout(t, x)
}

// TestRehashDropsTombstones checks that a rehash keeps every live entry and
// drops every tombstone and every entry whose node has retired, and that
// under drift — fresh keys published and unpublished, few live at a time —
// claimed slots track the live set instead of the keys ever published.
func TestRehashDropsTombstones(t *testing.T) {
	x := New[int64, int64]()
	const keys = 2000
	nodes := make([]*node.Node[int64, int64], keys)
	for k := int64(0); k < keys; k++ {
		nodes[k] = newNode(k, uint64(k+1))
		x.Publish(k, nodes[k], uint64(k+1))
	}
	live := 0
	for k := int64(0); k < keys; k++ {
		switch k % 4 {
		case 0:
			x.Unpublish(k, nodes[k], uint64(k+1)) // tombstone
		case 1:
			retire(nodes[k]) // dead but still indexed
		default:
			live++
		}
	}
	rehashAll(x)
	if st := x.Stats(); st.Entries != int64(live) {
		t.Fatalf("Stats.Entries after rehash = %d, want the %d live entries", st.Entries, live)
	}
	for k := int64(0); k < keys; k++ {
		n, _ := x.Lookup(k, nil)
		if want := k%4 >= 2; (n != nil) != want {
			t.Fatalf("Lookup(%d) after rehash = %p, want found=%v", k, n, want)
		}
	}
	checkLayout(t, x)

	// Drift: 64 keys live at a time, 20 000 distinct keys in all.
	y := New[int64, int64]()
	const window = 64
	ring := make([]*node.Node[int64, int64], window)
	for k := int64(0); k < 20000; k++ {
		if old := ring[k%window]; old != nil {
			y.Unpublish(old.Key(), old, old.ID())
		}
		ring[k%window] = newNode(k, uint64(k+1))
		y.Publish(k, ring[k%window], uint64(k+1))
		if k%window != 0 {
			continue
		}
		if e := y.Stats().Entries; e > 8*window {
			t.Fatalf("after %d distinct keys, %d live: Entries = %d", k+1, window, e)
		}
	}
	checkLayout(t, y)
}

// TestCollidingBuckets fills the index with string keys (the FNV-1a hash
// path). Arrays run up to half full, so home slots collide often: keys
// sharing a home slot share a probe run and must all stay reachable
// through it.
func TestCollidingBuckets(t *testing.T) {
	x := New[string, int64]()
	keys := make([]string, 3000)
	a := node.NewArena[string, int64](1, 1)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%05d", i)
		n := a.NewData(keys[i], int64(i), 0, 0, node.Owner{}, uint64(i+1), 0)
		x.Publish(keys[i], n, uint64(i+1))
	}
	for i, k := range keys {
		if n, id := x.Lookup(k, nil); n == nil || id != uint64(i+1) || n.Key() != k {
			t.Fatalf("Lookup(%q) = (%p, id=%d)", k, n, id)
		}
	}
	if n, _ := x.Lookup("key-99999", nil); n != nil {
		t.Fatal("Lookup of an unpublished string key returned a node")
	}
}

// TestHashCollisionFailsClosed forces two keys onto one 64-bit hash through
// the hash-taking internals. Each key gets a slot of its own: both are found
// while present, a lookup of one never returns the other's node, and each
// one's miss is proven once it is removed, whether the other is present or
// not.
func TestHashCollisionFailsClosed(t *testing.T) {
	x := New[int64, int64]()
	const a, b = 1, 2
	h := hash(int64(a))
	na, nb := newNode(a, 1), newNode(b, 2)
	x.publish(a, h, na, 1)
	x.publish(b, h, nb, 2)
	expect := func(key int64, want *node.Node[int64, int64]) {
		t.Helper()
		n, _, absent := x.lookup(key, h, true, nil)
		if n != want || absent != (want == nil) {
			t.Fatalf("lookup(%d) = (%p, absent=%v), want %p", key, n, absent, want)
		}
	}
	expect(a, na)
	expect(b, nb)
	if st := x.Stats(); st.Entries != 2 {
		t.Fatalf("two keys under one hash claimed %d slots, want 2", st.Entries)
	}
	// a retires (its entry stays until a rehash), then b is unpublished.
	retire(na)
	expect(a, nil)
	expect(b, nb)
	x.unpublish(h, nb, 2)
	expect(a, nil)
	expect(b, nil)
	// A new life of a reuses a slot under the hash, beside b's new life.
	na2, nb2 := newNode(a, 3), newNode(b, 4)
	x.publish(a, h, na2, 3)
	x.publish(b, h, nb2, 4)
	expect(a, na2)
	expect(b, nb2)
	if st := x.Stats(); st.Entries != 2 {
		t.Fatalf("new lives claimed fresh slots: Entries = %d, want 2", st.Entries)
	}
	checkLayout(t, x)
}

// TestConcurrentPublishLookup hammers the index from many goroutines with
// publishes, lookups, tombstones, retirements, and the rehashes that fresh
// keys trigger, primarily as a -race target. Key k and its alias (a
// distinct key forced onto k's hash) are both published under that hash,
// so the integrity rule is one slot per key: a lookup of either may miss,
// but a node it returns holds the key it asked for.
func TestConcurrentPublishLookup(t *testing.T) {
	x := New[int64, int64]()
	const (
		workers = 8
		keys    = 512
		alias   = 1 << 40
		rounds  = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fresh := int64(1<<32) + int64(w)<<20
			for r := 0; r < rounds; r++ {
				k := int64((r*7 + w*13) % keys)
				h := hash(k)
				id := uint64(w*rounds+r) + 1
				switch r % 5 {
				case 0:
					x.publish(k, h, newNode(k, id), id)
				case 1:
					x.publish(k+alias, h, newNode(k+alias, id), id)
				case 2:
					for _, key := range []int64{k, k + alias} {
						if n, _, _ := x.lookup(key, h, false, nil); n != nil && n.Key() != key {
							t.Errorf("lookup(%d) returned a node holding key %d", key, n.Key())
							return
						}
					}
				case 3:
					key := k + alias*int64(r/5%2)
					if n, id, _ := x.lookup(key, h, false, nil); n != nil {
						if r%2 == 0 {
							retire(n)
						} else {
							x.unpublish(h, n, id)
						}
					}
				case 4:
					// A fresh key claims a slot and tombstones it at once:
					// claims keep crossing half an array, so shards rehash
					// throughout.
					n := newNode(fresh, id)
					x.Publish(fresh, n, id)
					x.Unpublish(fresh, n, id)
					fresh++
				}
			}
		}(w)
	}
	wg.Wait()
	checkLayout(t, x)
	// Every key and alias is resolvable after a fresh publish once the
	// storm's survivor retires: in real use the lazy protocol guarantees at
	// most one unmarked node per key, and live incumbents win publish races.
	for k := int64(0); k < keys; k++ {
		for _, key := range []int64{k, k + alias} {
			if n, _, _ := x.lookup(key, hash(k), false, nil); n != nil {
				retire(n)
			}
			n := newNode(key, uint64(1<<40)+uint64(key))
			x.publish(key, hash(k), n, n.ID())
			if got, _, _ := x.lookup(key, hash(k), false, nil); got != n {
				t.Fatalf("lookup(%d) after final publish = %p, want %p", key, got, n)
			}
		}
	}
	checkLayout(t, x)
}

// TestConcurrentGrowth races rehashes against publishes: every entry
// published during the storm must stay reachable afterwards.
func TestConcurrentGrowth(t *testing.T) {
	x := New[int64, int64]()
	const (
		workers = 8
		perW    = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perW)
			for i := int64(0); i < perW; i++ {
				k := base + i
				x.Publish(k, newNode(k, uint64(k+1)), uint64(k+1))
				if n, _ := x.Lookup(base, nil); n == nil {
					t.Errorf("Lookup(%d) missed during growth", base)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := int64(0); k < workers*perW; k++ {
		if n, id := x.Lookup(k, nil); n == nil || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) = (%p, id=%d) after concurrent growth", k, n, id)
		}
	}
	if st := x.Stats(); st.Entries != workers*perW {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, workers*perW)
	}
	checkLayout(t, x)
}

// TestProbeInvariant runs a mixed publish/unpublish/retire sequence with
// rehashes along the way and checks the open-addressing layout after each
// phase.
func TestProbeInvariant(t *testing.T) {
	x := New[int64, int64]()
	nodes := map[int64]*node.Node[int64, int64]{}
	for phase := int64(0); phase < 4; phase++ {
		for k := phase * 1500; k < phase*1500+3000; k++ {
			if n := nodes[k]; n != nil && k%3 == 0 {
				x.Unpublish(k, n, n.ID())
				continue
			}
			n := newNode(k, uint64(phase<<32)+uint64(k)+1)
			if old := nodes[k]; old != nil {
				retire(old)
			}
			nodes[k] = n
			x.Publish(k, n, n.ID())
		}
		checkLayout(t, x)
	}
	rehashAll(x)
	checkLayout(t, x)
}

// TestFillSizesOnce: a bulk fill publishes every node, each in a slot of its
// own even where two keys share a hash (key 0 and hashOne), sizes each shard
// as a rehash would so the layout holds at most a third of its slots, and
// later publishes and unpublishes work on the filled arrays.
func TestFillSizesOnce(t *testing.T) {
	x := New[int64, int64]()
	const keys = 5000
	nodes := make([]*node.Node[int64, int64], keys, keys+1)
	for k := range nodes {
		nodes[k] = newNode(int64(k), uint64(k+1))
	}
	nodes = append(nodes, newNode(hashOne, keys+1))
	x.Fill(nodes)
	checkLayout(t, x)
	for _, n := range nodes {
		if got, _ := x.Lookup(n.Key(), nil); got != n {
			t.Fatalf("key %d: %p after Fill, want %p", n.Key(), got, n)
		}
	}
	for i := range x.shards {
		s := &x.shards[i]
		if len(*s.tab.Load()) != slotsFor(s.live) {
			t.Fatalf("shard %d: %d slots for %d entries, want %d", i, len(*s.tab.Load()), s.live, slotsFor(s.live))
		}
	}
	if st := x.Stats(); st.Entries != keys+1 {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, keys+1)
	}
	extra := newNode(keys, keys+2)
	x.Publish(keys, extra, keys+2)
	x.Unpublish(0, nodes[0], 1)
	if n, _, absent := x.Find(0, nil); n != nil || !absent {
		t.Fatal("unpublished key 0 not proven absent")
	}
	if got, _ := x.Lookup(hashOne, nil); got != nodes[keys] {
		t.Fatal("key 0's unpublish lost the key sharing its hash")
	}
	if got, _ := x.Lookup(keys, nil); got != extra {
		t.Fatal("key published after Fill not found")
	}
	checkLayout(t, x)
}

// TestUnpublishNamesTheLife: an unpublish naming an older life of a
// recycled node keeps the newer life's entry. A reader can read (n, life 1),
// stall while n's slot is freed, reallocated to the same key as life 2 and
// republished under the same pointer, and then prune what it read. Pruning
// by node alone would tombstone the live entry, and a later miss would prove
// a present key absent.
func TestUnpublishNamesTheLife(t *testing.T) {
	a := node.NewArena[int64, int64](1, 1)
	x := New[int64, int64]()
	old := a.NewData(7, 70, 0, 0, node.Owner{}, 1, 0)
	x.Publish(7, old, 1)
	stale, staleID := x.Lookup(7, nil)
	retire(old)
	a.Free(old)
	n := a.NewData(7, 71, 0, 0, node.Owner{}, 2, 0)
	if n != old {
		t.Fatal("the arena did not reuse the freed slot")
	}
	x.Publish(7, n, 2)
	x.Unpublish(7, stale, staleID)
	if got, id := x.Lookup(7, nil); got != n || id != 2 {
		t.Fatal("an unpublish naming life 1 tombstoned life 2's entry")
	}
	if _, _, absent := x.Find(7, nil); absent {
		t.Fatal("Find proved a published key absent")
	}
	x.Unpublish(7, n, 2)
	if _, _, absent := x.Find(7, nil); !absent {
		t.Fatal("an unpublish naming the indexed life left its entry")
	}
}

// TestFindProvesAbsence checks when a miss is a proof: with its shard's
// pending count at 0, a probe that meets no live life of the key proves
// absence, on every key type and on both keys sharing hash 1; a pending
// insert anywhere in the shard, or a published entry, proves nothing.
func TestFindProvesAbsence(t *testing.T) {
	x := New[int64, int64]()
	const k = 42
	if _, _, absent := x.Find(k, nil); !absent {
		t.Fatal("no proof from a free slot")
	}
	n := newNode(k, 1)
	x.Publish(k, n, 1)
	if got, _, absent := x.Find(k, nil); got != n || absent {
		t.Fatalf("Find of a published key = (%p, absent=%v)", got, absent)
	}
	x.Unpublish(k, n, 1)
	if _, _, absent := x.Find(k, nil); !absent {
		t.Fatal("no proof from a tombstone")
	}
	// A pending insert of another key in the same shard blocks proofs.
	other := int64(k + 1)
	for x.shardOf(hash(other)) != x.shardOf(hash(int64(k))) {
		other++
	}
	x.BeginInsert(other)
	if _, _, absent := x.Find(k, nil); absent {
		t.Fatal("proof while an insert in the shard is pending")
	}
	x.EndInsert(other)
	if _, _, absent := x.Find(k, nil); !absent {
		t.Fatal("no proof after the pending insert ended")
	}
	// Key 0 and hashOne share hash 1: each one's entry proves nothing about
	// the other.
	if hash(int64(0)) != 1 || hash(int64(hashOne)) != 1 {
		t.Fatalf("hash(0) = %#x and hash(%d) = %#x, want both 1", hash(int64(0)), int64(hashOne), hash(int64(hashOne)))
	}
	zero := newNode(0, 2)
	x.Publish(0, zero, 2)
	if got, _, absent := x.Find(hashOne, nil); got != nil || !absent {
		t.Fatalf("Find(%d) beside key 0 = (%p, absent=%v), want a proof", int64(hashOne), got, absent)
	}
	if got, _, _ := x.Find(0, nil); got != zero {
		t.Fatal("key 0 not found under hash 1")
	}
	if _, _, absent := New[string, int64]().Find("absent", nil); !absent {
		t.Fatal("no proof for a string key")
	}
	// -0.0 and +0.0 are one key: an entry under either answers both.
	f := New[float64, int64]()
	if _, _, absent := f.Find(0.5, nil); !absent {
		t.Fatal("no proof for a float key")
	}
	fa := node.NewArena[float64, int64](1, 1)
	negZero := fa.NewData(math.Copysign(0, -1), 0, 0, 0, node.Owner{}, 3, 0)
	f.Publish(negZero.Key(), negZero, 3)
	if got, _, absent := f.Find(0, nil); got != negZero || absent {
		t.Fatalf("Find(+0.0) after Publish(-0.0) = (%p, absent=%v)", got, absent)
	}
}
