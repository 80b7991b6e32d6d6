package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/local"
	"layeredsg/internal/numa"
	"layeredsg/internal/stats"
)

// TestLossyIndex checks that a point operation answers correctly whether or
// not the index holds its key, and that the index is exact for presence when
// no entry is unpublished by force. Random Insert/Remove/Get over 64 keys
// run from 4 handles, every result checked against a model, then the
// structure's invariants and Len.
//
// In the lossy legs, before each operation, with probability ½, the key's
// index entry is unpublished, so the operation falls back to a descent
// seeded from the handle's local structure, which may hold the key's own
// node. Unpublishing a live entry while no insert is pending breaks the
// index's proof of absence, so each forced loss also raises the key's shard
// pending count for the rest of the run. The reclaim leg forces reclamation
// passes as it goes, so retirements and slot reuse interleave with the
// misses. The exact legs force no loss and check, after every operation,
// that each present key resolves to its live node and each absent key is
// proven absent or resolves to a node that is not live or holds another key.
func TestLossyIndex(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			runLossyIndex(t, newMap(t, kind, 4), nil, true)
		})
	}
	t.Run("lazy_layered_sg_reclaim", func(t *testing.T) {
		m := newLazyMap(t, Config{CommissionPeriod: time.Microsecond})
		runLossyIndex(t, m, func() { m.Reclaim() }, true)
	})
	for _, kind := range allKinds() {
		t.Run("exact/"+kind.String(), func(t *testing.T) {
			runLossyIndex(t, newMap(t, kind, 4), nil, false)
		})
	}
	t.Run("exact/lazy_layered_sg_reclaim", func(t *testing.T) {
		m := newLazyMap(t, Config{CommissionPeriod: time.Microsecond})
		runLossyIndex(t, m, func() { m.Reclaim() }, false)
	})
}

func runLossyIndex(t *testing.T, m *Map[int64, int64], reclaim func(), lossy bool) {
	const keys, ops = 64, 4000
	rng := rand.New(rand.NewSource(int64(m.Kind())))
	model := map[int64]bool{}
	for i := 0; i < ops; i++ {
		key := rng.Int63n(keys)
		h := m.Handle(rng.Intn(4))
		if lossy && rng.Intn(2) == 0 {
			if n, id := m.hidx.Lookup(key, nil); n != nil {
				m.hidx.Unpublish(key, n, id)
				m.hidx.BeginInsert(key)
			}
		}
		switch rng.Intn(3) {
		case 0:
			if got := h.Insert(key, key*7+1); got == model[key] {
				t.Fatalf("op %d: handle %d Insert(%d) = %v with present=%v", i, h.Thread(), key, got, model[key])
			}
			model[key] = true
		case 1:
			if got := h.Remove(key); got != model[key] {
				t.Fatalf("op %d: handle %d Remove(%d) = %v with present=%v", i, h.Thread(), key, got, model[key])
			}
			delete(model, key)
		default:
			if v, ok := h.Get(key); ok != model[key] || (ok && v != key*7+1) {
				t.Fatalf("op %d: handle %d Get(%d) = (%d, %v) with present=%v", i, h.Thread(), key, v, ok, model[key])
			}
		}
		if reclaim != nil && i%64 == 63 {
			reclaim()
		}
		if !lossy {
			checkExact(t, m, keys, model, i)
		}
	}
	m.Close()
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := m.Len(); got != len(model) {
		t.Fatalf("Len = %d, model has %d", got, len(model))
	}
}

// checkExact asserts the index is exact for presence over keys [0, keys):
// each key the model holds resolves through Lookup to a live node holding
// it, and each key it lacks is proven absent or resolves to a node of the
// key that is not live.
func checkExact(t *testing.T, m *Map[int64, int64], keys int64, model map[int64]bool, op int) {
	t.Helper()
	live := func(r local.Ref[int64, int64], key int64) bool {
		if r.N == nil || !m.usable(r, nil) || r.N.Key() != key {
			return false
		}
		marked, valid := r.N.MarkValid(0, nil)
		return !marked && valid
	}
	for k := int64(0); k < keys; k++ {
		if model[k] {
			n, id := m.hidx.Lookup(k, nil)
			if !live(local.Ref[int64, int64]{N: n, ID: id}, k) {
				t.Fatalf("op %d: present key %d does not resolve to its live node", op, k)
			}
			continue
		}
		n, id, absent := m.hidx.Find(k, nil)
		if n == nil && !absent {
			t.Fatalf("op %d: absent key %d neither proven absent nor indexed", op, k)
		}
		if live(local.Ref[int64, int64]{N: n, ID: id}, k) {
			t.Fatalf("op %d: absent key %d resolves to a live node", op, k)
		}
	}
}

// TestPendingInsertBlocksProof runs an insert's steps by hand up to its
// level-0 link: the shard's pending count raised, the node linked, its index
// entry not yet published. The key is present from the link on, so another
// handle's Get and Contains must find it by a descent rather than take the
// index's miss as a proof. The insert then publishes and lowers the count,
// after which the key resolves through the index.
func TestPendingInsertBlocksProof(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, 4)
			h, other := m.Handle(0), m.Handle(1)
			const key, value = 42, 420
			h.enter()
			m.hidx.BeginInsert(key)
			it := h.getStart(key)
			if m.sg.LazyRelinkSearch(key, h.nodeOf(it), h.vector, h.res, h.tr) {
				t.Fatal("key found before its insert")
			}
			n := m.sg.NewNode(int64(key), value, h.vector, h.owner, m.sg.RandomTopLevel(h.rng))
			if !m.sg.LinkLevel0(h.res, n, h.tr) {
				t.Fatal("level-0 link failed")
			}
			m.stampFreshBorn(n)
			if _, _, absent := m.hidx.Find(key, nil); absent {
				t.Fatal("Find proved a linked key absent while its insert was pending")
			}
			if v, ok := other.Get(key); !ok || v != value {
				t.Fatalf("Get during the pending window = (%d, %v), want (%d, true)", v, ok, value)
			}
			if !other.Contains(key) {
				t.Fatal("Contains during the pending window = false")
			}
			h.afterBottomLink(key, n, it)
			m.hidx.EndInsert(key)
			h.live.Add(1)
			h.leave()
			if got, _ := m.hidx.Lookup(key, nil); got != n {
				t.Fatal("the published key does not resolve to its node")
			}
			if !other.Remove(key) || other.Contains(key) {
				t.Fatal("Remove after the insert completed failed")
			}
			if err := m.SharedStructure().Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// TestProofUnderChurn runs the proof of absence beside everything that
// tombstones, copies or recycles index entries: two writers cycle their
// keys through Insert and Remove, reclamation passes retire and free the
// dead nodes (so slots come back as new lives, often of the same key), and
// shards rehash as keys come and go. A per-key sequence, odd while the key
// is present, is raised after each Insert and before each Remove, so a
// reader that reads the same odd value before and after its Get saw the key
// present throughout, and the Get must find it. A false proof of absence (a
// live entry tombstoned by a stale prune, dropped by a rehash or missed by a
// probe) fails the test.
func TestProofUnderChurn(t *testing.T) {
	m := newLazyMap(t, Config{CommissionPeriod: time.Microsecond})
	const keys, ops = 1024, 6000
	var seq [keys]atomic.Uint64
	var done atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer done.Add(1)
			h := m.Handle(w)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := int64(w + 2*rng.Intn(keys/2)) // Writer w owns the keys ≡ w mod 2.
				if seq[k].Load()%2 == 1 {
					seq[k].Add(1)
					if !h.Remove(k) {
						t.Errorf("Remove(%d) of a present key = false", k)
						return
					}
				} else {
					if !h.Insert(k, k) {
						t.Errorf("Insert(%d) of an absent key = false", k)
						return
					}
					seq[k].Add(1)
				}
				if i%256 == 255 {
					m.Reclaim()
				}
			}
		}(w)
	}
	for r := 2; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := m.Handle(r)
			rng := rand.New(rand.NewSource(int64(r)))
			for done.Load() < 2 {
				k := rng.Int63n(keys)
				before := seq[k].Load()
				_, ok := h.Get(k)
				if !ok && before%2 == 1 && seq[k].Load() == before {
					t.Errorf("Get(%d) = false while the key was present throughout", k)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if st := m.SharedStructure().ArenaStats(); st.SlotsReclaimed == 0 {
		t.Fatal("no slot was reclaimed: the churn never recycled a life")
	}
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestEveryKeyTypeProvesMisses: the index proves the miss of every key
// type, so an absent key's Get or Remove never descends, whether the key is
// an integer, a float (whose -0.0 and +0.0 are one key with two bit
// patterns) or a string, and whether or not it shares its hash with another
// key: key 0, whose hash is remapped to 1, and the int64 whose hash is 1 are
// the one integer pair that does. Hits do not descend either.
func TestEveryKeyTypeProvesMisses(t *testing.T) {
	machine := testMachine(t, 4)
	// Each leg reads through handle 1; its recorder counts the descents.
	check := func(t *testing.T, rec *stats.Recorder, what string, op func() bool, want bool) {
		t.Helper()
		before := rec.ThreadRecorder(1).Counters().Searches
		if got := op(); got != want {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
		if rec.ThreadRecorder(1).Counters().Searches != before {
			t.Fatalf("%s descended", what)
		}
	}

	t.Run("float64", func(t *testing.T) {
		for _, zeros := range [][2]float64{{0, math.Copysign(0, -1)}, {math.Copysign(0, -1), 0}} {
			rec, m := newRecordedMap[float64](t, machine)
			if !m.Handle(0).Insert(zeros[0], 1) {
				t.Fatalf("Insert(%v) = false", zeros[0])
			}
			h := m.Handle(1)
			check(t, rec, fmt.Sprintf("Contains(%v) after Insert(%v)", zeros[1], zeros[0]), func() bool { return h.Contains(zeros[1]) }, true)
			check(t, rec, "Contains(0.5)", func() bool { return h.Contains(0.5) }, false)
			check(t, rec, "Remove(0.5)", func() bool { return h.Remove(0.5) }, false)
			check(t, rec, fmt.Sprintf("Remove(%v)", zeros[1]), func() bool { return h.Remove(zeros[1]) }, true)
			check(t, rec, fmt.Sprintf("Contains(%v) after its removal", zeros[0]), func() bool { return h.Contains(zeros[0]) }, false)
		}
	})
	t.Run("string", func(t *testing.T) {
		rec, m := newRecordedMap[string](t, machine)
		m.Handle(0).Insert("present", 1)
		h := m.Handle(1)
		check(t, rec, `Contains("present")`, func() bool { return h.Contains("present") }, true)
		check(t, rec, `Contains("absent")`, func() bool { return h.Contains("absent") }, false)
		check(t, rec, `Remove("absent")`, func() bool { return h.Remove("absent") }, false)
	})
	t.Run("int64", func(t *testing.T) {
		rec, m := newRecordedMap[int64](t, machine)
		m.Handle(0).Insert(2, 1)
		h := m.Handle(1)
		check(t, rec, "Contains(3)", func() bool { return h.Contains(3) }, false)
		check(t, rec, "Remove(3)", func() bool { return h.Remove(3) }, false)
	})
	t.Run("key0", func(t *testing.T) {
		rec, m := newRecordedMap[int64](t, machine)
		alias := int64(unmix(1))
		for _, k := range []int64{0, alias} {
			if !m.Handle(0).Insert(k, k) {
				t.Fatalf("Insert(%d) = false", k)
			}
		}
		if e := m.hidx.Stats().Entries; e != 2 {
			t.Fatalf("index holds %d entries for key 0 and key %d, want 2", e, alias)
		}
		h := m.Handle(1)
		for i, k := range []int64{0, alias} {
			other := []int64{alias, 0}[i]
			check(t, rec, fmt.Sprintf("Contains(%d)", k), func() bool { return h.Contains(k) }, true)
			check(t, rec, fmt.Sprintf("Remove(%d)", k), func() bool { return h.Remove(k) }, true)
			check(t, rec, fmt.Sprintf("Contains(%d) after its removal", k), func() bool { return h.Contains(k) }, false)
			check(t, rec, fmt.Sprintf("Remove(%d) after its removal", k), func() bool { return h.Remove(k) }, false)
			if i == 0 {
				check(t, rec, fmt.Sprintf("Contains(%d) beside the removed key %d", other, k), func() bool { return h.Contains(other) }, true)
			}
		}
	})
}

// newRecordedMap builds a lazy map with a recorder on machine.
func newRecordedMap[K cmp.Ordered](t *testing.T, machine *numa.Machine) (*stats.Recorder, *Map[K, int64]) {
	t.Helper()
	rec := stats.NewRecorder(machine, nil)
	m, err := New[K, int64](Config{Machine: machine, Kind: LazyLayeredSG, Recorder: rec, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return rec, m
}

// unmix inverts the splitmix64 finalizer internal/hindex hashes keys with:
// each xorshift is undone by the xorshifts at its multiples, each multiply
// by its inverse mod 2^64.
func unmix(h uint64) uint64 {
	inv := func(c uint64) uint64 { // Newton's iteration doubles the correct low bits.
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	h ^= h>>31 ^ h>>62
	h *= inv(0x94d049bb133111eb)
	h ^= h>>27 ^ h>>54
	h *= inv(0xbf58476d1ce4e5b9)
	h ^= h>>30 ^ h>>60
	return h
}
