package hindex

import (
	"fmt"
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

// find is the consumer's side of the contract (core's indexFind): a hit
// counts only if the node is live as the indexed life and holds key.
func find(x *Index[int64, int64], h uint64, key int64) (*node.Node[int64, int64], bool) {
	n, id, _ := x.lookup(h, false)
	if n == nil || !n.LiveAs(id, nil) || n.Key() != key {
		return nil, false
	}
	return n, true
}

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
// claimed hash belongs to its shard, is claimed once, and is reachable from
// its home slot without crossing a free slot; the counters match the array;
// and a free slot remains.
func checkLayout(t *testing.T, x *Index[int64, int64]) {
	t.Helper()
	for si := range x.shards {
		s := &x.shards[si]
		s.mu.Lock()
		tab := *s.tab.Load()
		mask := uint64(len(tab) - 1)
		used, live := 0, 0
		seen := map[uint64]bool{}
		for i := range tab {
			h := tab[i].hash.Load()
			if h == 0 {
				if tab[i].n.Load() != nil {
					t.Errorf("shard %d slot %d: node in a free slot", si, i)
				}
				continue
			}
			used++
			if tab[i].n.Load() != nil {
				live++
			}
			if x.shardOf(h) != s {
				t.Errorf("shard %d slot %d: hash %#x belongs to another shard", si, i, h)
			}
			if seen[h] {
				t.Errorf("shard %d: hash %#x claimed twice", si, h)
			}
			seen[h] = true
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
		n, id, ok := x.Lookup(k)
		if !ok || n != nodes[k] || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) = (%p, %d, %v), want (%p, %d, true)", k, n, id, ok, nodes[k], k+1)
		}
	}
	if _, _, ok := x.Lookup(keys + 1); ok {
		t.Fatal("Lookup of an unpublished key returned ok")
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
	if _, _, ok := x.Lookup(7); ok {
		t.Fatal("Lookup found a tombstoned entry")
	}
	// A republish revives the same slot in place.
	before := x.Stats().Entries
	n2 := newNode(7, 2)
	x.Publish(7, n2, 2)
	if got := x.Stats().Entries; got != before {
		t.Fatalf("republish claimed a new slot: Entries %d -> %d", before, got)
	}
	n, id, ok := x.Lookup(7)
	if !ok || n != n2 || id != 2 {
		t.Fatalf("Lookup(7) after republish = (%p, %d, %v), want n2", n, id, ok)
	}
	// Unpublish with a stale node must not clobber the newer publish.
	x.Unpublish(7, n1, 1)
	if _, _, ok := x.Lookup(7); !ok {
		t.Fatal("stale Unpublish clobbered a newer publish")
	}
}

func TestPublishKeepsLiveIncumbent(t *testing.T) {
	x := New[int64, int64]()
	live := newNode(3, 10) // unmarked: LiveAs(10) holds
	x.Publish(3, live, 10)
	// A laggard publish from a previous life must lose to the live incumbent.
	x.Publish(3, newNode(3, 4), 4)
	n, id, ok := x.Lookup(3)
	if !ok || n != live || id != 10 {
		t.Fatalf("Lookup(3) = (%p, %d, %v), want the live incumbent", n, id, ok)
	}
	// Once the incumbent is retired (marked), a new publish wins.
	retire(live)
	next := newNode(3, 11)
	x.Publish(3, next, 11)
	n, id, ok = x.Lookup(3)
	if !ok || n != next || id != 11 {
		t.Fatalf("Lookup(3) after retire = (%p, %d, %v), want the new life", n, id, ok)
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
		if _, id, ok := x.Lookup(k); !ok || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) after growth = (id=%d, ok=%v)", k, id, ok)
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
		_, _, ok := x.Lookup(k)
		if want := k%4 >= 2; ok != want {
			t.Fatalf("Lookup(%d) after rehash ok=%v, want %v", k, ok, want)
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
		if n, id, ok := x.Lookup(k); !ok || id != uint64(i+1) || n.Key() != k {
			t.Fatalf("Lookup(%q) = (id=%d, ok=%v)", k, id, ok)
		}
	}
	if _, _, ok := x.Lookup("key-99999"); ok {
		t.Fatal("Lookup of an unpublished string key returned ok")
	}
}

// TestHashCollisionFailsClosed forces two keys onto one 64-bit hash through
// the hash-taking internals. The slot serves whichever key's node holds it,
// and the consumer's key check turns the other key's lookups into misses.
func TestHashCollisionFailsClosed(t *testing.T) {
	x := New[int64, int64]()
	const a, b = 1, 2
	h := hash(int64(a))
	na := newNode(a, 1)
	x.publish(h, na, 1)
	if n, ok := find(x, h, a); !ok || n != na {
		t.Fatalf("key %d not found under its own hash", a)
	}
	if n, _, _ := x.lookup(h, false); n == nil || n.Key() != a {
		t.Fatalf("lookup(h) = %v, want key %d's node", n, a)
	}
	if _, ok := find(x, h, b); ok {
		t.Fatalf("key check accepted key %d's node for key %d", a, b)
	}
	// b's publish loses to the live incumbent, even though it holds a
	// different key.
	nb := newNode(b, 2)
	x.publish(h, nb, 2)
	if n, _, _ := x.lookup(h, false); n != na {
		t.Fatal("publish under a colliding hash displaced a live incumbent")
	}
	if _, ok := find(x, h, b); ok {
		t.Fatalf("key %d resolved while key %d holds the slot", b, a)
	}
	// Once a retires, b takes the slot and a's lookups miss.
	retire(na)
	x.publish(h, nb, 2)
	if n, ok := find(x, h, b); !ok || n != nb {
		t.Fatalf("key %d not found after the incumbent retired", b)
	}
	if _, ok := find(x, h, a); ok {
		t.Fatalf("key check accepted key %d's node for key %d", b, a)
	}
	if st := x.Stats(); st.Entries != 1 {
		t.Fatalf("colliding keys claimed %d slots, want 1", st.Entries)
	}
}

// TestConcurrentPublishLookup hammers the index from many goroutines with
// publishes, lookups, tombstones, retirements, and the rehashes that fresh
// keys trigger, primarily as a -race target. Every node published under
// key k's hash holds k or k's alias (a distinct key forced onto the same
// hash), so the integrity rule is the consumer's key check: a lookup may
// miss, but a node it returns must hold one of those two keys, and a hit
// that passes the check holds k.
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
					x.publish(h, newNode(k, id), id)
				case 1:
					x.publish(h, newNode(k+alias, id), id)
				case 2:
					if n, _, _ := x.lookup(h, false); n != nil && n.Key() != k && n.Key() != k+alias {
						t.Errorf("lookup under key %d's hash returned a node holding key %d", k, n.Key())
						return
					}
					if n, ok := find(x, h, k); ok && n.Key() != k {
						t.Errorf("key check passed key %d's node for key %d", n.Key(), k)
						return
					}
				case 3:
					if n, id, _ := x.lookup(h, false); n != nil {
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
	// Every key is resolvable after a fresh publish once the storm's
	// survivor retires: in real use the lazy protocol guarantees at most one
	// unmarked node per key, and live incumbents win publish races.
	for k := int64(0); k < keys; k++ {
		if n, _, ok := x.Lookup(k); ok {
			retire(n)
		}
		n := newNode(k, uint64(1<<40)+uint64(k))
		x.Publish(k, n, n.ID())
		if got, ok := find(x, hash(k), k); !ok || got != n {
			t.Fatalf("find(%d) after final publish = (%p, ok=%v), want %p", k, got, ok, n)
		}
	}
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
				if _, _, ok := x.Lookup(base); !ok {
					t.Errorf("Lookup(%d) missed during growth", base)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for k := int64(0); k < workers*perW; k++ {
		if _, id, ok := x.Lookup(k); !ok || id != uint64(k+1) {
			t.Fatalf("Lookup(%d) = (id=%d, ok=%v) after concurrent growth", k, id, ok)
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

// TestFillSizesOnce: a bulk fill publishes every node, sizes each shard as a
// rehash would so the layout holds at most a third of its slots, and later
// publishes and unpublishes work on the filled arrays.
func TestFillSizesOnce(t *testing.T) {
	x := New[int64, int64]()
	const keys = 5000
	nodes := make([]*node.Node[int64, int64], keys)
	for k := range nodes {
		nodes[k] = newNode(int64(k), uint64(k+1))
	}
	x.Fill(nodes)
	checkLayout(t, x)
	for k, n := range nodes {
		if got, ok := find(x, hash(int64(k)), int64(k)); !ok || got != n {
			t.Fatalf("key %d: (%p, %v) after Fill, want (%p, true)", k, got, ok, n)
		}
	}
	for i := range x.shards {
		s := &x.shards[i]
		if len(*s.tab.Load()) != slotsFor(s.live) {
			t.Fatalf("shard %d: %d slots for %d entries, want %d", i, len(*s.tab.Load()), s.live, slotsFor(s.live))
		}
	}
	if st := x.Stats(); st.Entries != keys {
		t.Fatalf("Stats.Entries = %d, want %d", st.Entries, keys)
	}
	extra := newNode(keys, keys+1)
	x.Publish(keys, extra, keys+1)
	x.Unpublish(0, nodes[0], 1)
	if _, ok := find(x, hash(int64(0)), 0); ok {
		t.Fatal("unpublished key still found")
	}
	if got, ok := find(x, hash(int64(keys)), keys); !ok || got != extra {
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
	stale, staleID, _ := x.Lookup(7)
	retire(old)
	a.Free(old)
	n := a.NewData(7, 71, 0, 0, node.Owner{}, 2, 0)
	if n != old {
		t.Fatal("the arena did not reuse the freed slot")
	}
	x.Publish(7, n, 2)
	x.Unpublish(7, stale, staleID)
	if got, ok := find(x, hash(int64(7)), 7); !ok || got.ID() != 2 {
		t.Fatal("an unpublish naming life 1 tombstoned life 2's entry")
	}
	if _, _, absent := x.Find(7); absent {
		t.Fatal("Find proved a published key absent")
	}
	x.Unpublish(7, n, 2)
	if _, _, absent := x.Find(7); !absent {
		t.Fatal("an unpublish naming the indexed life left its entry")
	}
}

// TestFindProvesAbsence checks when a miss is a proof: on an integer key
// whose hash is not 1, with its shard's pending count at 0, a free or
// tombstoned slot proves absence; a pending insert anywhere in the shard, a
// published entry, key 0 (which shares hash 1), and string and float keys
// prove nothing.
func TestFindProvesAbsence(t *testing.T) {
	x := New[int64, int64]()
	const k = 42
	if _, _, absent := x.Find(k); !absent {
		t.Fatal("no proof from a free slot")
	}
	n := newNode(k, 1)
	x.Publish(k, n, 1)
	if got, _, absent := x.Find(k); got != n || absent {
		t.Fatalf("Find of a published key = (%p, absent=%v)", got, absent)
	}
	x.Unpublish(k, n, 1)
	if _, _, absent := x.Find(k); !absent {
		t.Fatal("no proof from a tombstone")
	}
	// A pending insert of another key in the same shard blocks proofs.
	other := int64(k + 1)
	for x.shardOf(hash(other)) != x.shardOf(hash(int64(k))) {
		other++
	}
	x.BeginInsert(other)
	if _, _, absent := x.Find(k); absent {
		t.Fatal("proof while an insert in the shard is pending")
	}
	x.EndInsert(other)
	if _, _, absent := x.Find(k); !absent {
		t.Fatal("no proof after the pending insert ended")
	}
	if hash(int64(0)) != 1 {
		t.Fatal("key 0 does not share hash 1")
	}
	if _, _, absent := x.Find(0); absent {
		t.Fatal("proof under hash 1")
	}
	if _, _, absent := New[string, int64]().Find("absent"); absent {
		t.Fatal("proof for a string key")
	}
	if _, _, absent := New[float64, int64]().Find(0.5); absent {
		t.Fatal("proof for a float key")
	}
}
