package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"layeredsg/internal/numa"
)

func testMachine(t *testing.T, threads int) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 4, 2)
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	m, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatalf("pin: %v", err)
	}
	return m
}

func allKinds() []Kind {
	return []Kind{LayeredSG, LazyLayeredSG, LayeredSSG, LazyLayeredSSG, LayeredLL, LayeredSL}
}

func newMap(t *testing.T, kind Kind, threads int) *Map[int64, int64] {
	t.Helper()
	m, err := New[int64, int64](Config{
		Machine:          testMachine(t, threads),
		Kind:             kind,
		CommissionPeriod: time.Microsecond, // retire aggressively in tests
		Seed:             42,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return m
}

func TestSequentialBasics(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, 4)
			h := m.Handle(0)

			if h.Contains(10) {
				t.Fatal("empty map contains 10")
			}
			if !h.Insert(10, 100) {
				t.Fatal("insert 10 failed")
			}
			if h.Insert(10, 200) {
				t.Fatal("duplicate insert 10 succeeded")
			}
			if v, ok := h.Get(10); !ok || v != 100 {
				t.Fatalf("Get(10) = %v,%v want 100,true", v, ok)
			}
			if !h.Insert(5, 50) || !h.Insert(20, 200) {
				t.Fatal("inserts failed")
			}
			if got := m.Len(); got != 3 {
				t.Fatalf("Len = %d want 3", got)
			}
			if !h.Remove(10) {
				t.Fatal("remove 10 failed")
			}
			if h.Remove(10) {
				t.Fatal("double remove 10 succeeded")
			}
			if h.Contains(10) {
				t.Fatal("contains removed key")
			}
			if !h.Insert(10, 300) {
				t.Fatal("re-insert 10 failed")
			}
			// Lazy variants may revive the logically-deleted node, restoring
			// its original value (the paper's I-ii revival); non-lazy variants
			// allocate a fresh node carrying the new value.
			// the new node's value (300); whether revival happens depends on
			// whether the commission period retired the node first.
			v, ok := h.Get(10)
			if !ok {
				t.Fatal("Get(10) after reinsert: absent")
			}
			if kind.lazy() {
				if v != 100 && v != 300 {
					t.Fatalf("Get(10) after reinsert = %v want 100 (revived) or 300 (fresh)", v)
				}
			} else if v != 300 {
				t.Fatalf("Get(10) after reinsert = %v want 300", v)
			}
			keys := m.Keys()
			want := []int64{5, 10, 20}
			if len(keys) != len(want) {
				t.Fatalf("keys = %v want %v", keys, want)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("keys = %v want %v", keys, want)
				}
			}
		})
	}
}

// TestTallMachineArena builds the lazy map on a 320-thread machine, whose
// paper height (ceil(log2 T)-1 = 8) needs more level words than a node
// inlines: the top level lives in the arena's overflow words. Each inserting
// handle's later operations finish its earlier inserts, so level 8 gets
// linked through those words.
func TestTallMachineArena(t *testing.T) {
	topo, err := numa.New(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := numa.Pin(topo, 320)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New[int64, int64](Config{Machine: machine, Kind: LazyLayeredSG, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.MaxLevel(); got != 8 {
		t.Fatalf("MaxLevel = %d, want 8", got)
	}
	for k := int64(0); k < 64; k++ {
		if !m.Handle(int(k%4)*80).Insert(k, k*3) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	h := m.Handle(319)
	for k := int64(0); k < 64; k++ {
		if v, ok := h.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	for k := int64(0); k < 64; k += 2 {
		if !h.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	if got := m.Len(); got != 32 {
		t.Fatalf("Len = %d, want 32", got)
	}
	top := 0
	for label := uint32(0); label < 1<<8; label++ {
		top += m.SharedStructure().LevelLen(8, label)
	}
	if top == 0 {
		t.Fatal("no node linked at level 8")
	}
	if st := m.SharedStructure().ArenaStats(); st.SlotsUsed == 0 {
		t.Fatalf("320-thread map reports no arena slots: %+v", st)
	}
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossThreadVisibility(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, 8)
			// Each thread inserts its own keys sequentially; every other
			// thread must see them.
			for th := 0; th < 8; th++ {
				h := m.Handle(th)
				for k := int64(0); k < 50; k++ {
					key := int64(th)*1000 + k
					if !h.Insert(key, key) {
						t.Fatalf("thread %d insert %d failed", th, key)
					}
				}
			}
			for th := 0; th < 8; th++ {
				h := m.Handle(th)
				for other := 0; other < 8; other++ {
					for k := int64(0); k < 50; k++ {
						key := int64(other)*1000 + k
						if !h.Contains(key) {
							t.Fatalf("thread %d does not see key %d", th, key)
						}
					}
				}
			}
			// Cross-thread removal: thread (th+1)%8 removes thread th's keys.
			for th := 0; th < 8; th++ {
				h := m.Handle((th + 1) % 8)
				for k := int64(0); k < 50; k++ {
					key := int64(th)*1000 + k
					if !h.Remove(key) {
						t.Fatalf("cross-thread remove of %d failed", key)
					}
				}
			}
			if got := m.Len(); got != 0 {
				t.Fatalf("Len after removing everything = %d, keys %v", got, m.Keys())
			}
		})
	}
}

// TestConcurrentDisjointKeys has each thread own a disjoint key range and
// hammer insert/remove cycles; afterwards the map must contain exactly the
// keys left in by each thread's deterministic schedule.
func TestConcurrentDisjointKeys(t *testing.T) {
	const threads = 8
	const perThread = 200
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, threads)
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := m.Handle(th)
					base := int64(th) * 10000
					for k := int64(0); k < perThread; k++ {
						key := base + k
						if !h.Insert(key, key) {
							t.Errorf("thread %d: insert %d failed", th, key)
							return
						}
					}
					// Remove odd keys.
					for k := int64(1); k < perThread; k += 2 {
						key := base + k
						if !h.Remove(key) {
							t.Errorf("thread %d: remove %d failed", th, key)
							return
						}
					}
				}(th)
			}
			wg.Wait()
			// Even keys present, odd keys absent, from every thread's view.
			h := m.Handle(0)
			for th := 0; th < threads; th++ {
				base := int64(th) * 10000
				for k := int64(0); k < perThread; k++ {
					key := base + k
					want := k%2 == 0
					if got := h.Contains(key); got != want {
						t.Fatalf("Contains(%d) = %v want %v", key, got, want)
					}
				}
			}
			if got, want := m.Len(), threads*perThread/2; got != want {
				t.Fatalf("Len = %d want %d", got, want)
			}
		})
	}
}

// TestConcurrentContended hammers a tiny key space from all threads and then
// validates structural invariants: the bottom list is sorted, and no key
// appears twice among logically present nodes.
func TestConcurrentContended(t *testing.T) {
	const threads = 8
	const keySpace = 64
	const opsPerThread = 3000
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, threads)
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := m.Handle(th)
					rng := rand.New(rand.NewSource(int64(th) + 1))
					for i := 0; i < opsPerThread; i++ {
						key := rng.Int63n(keySpace)
						switch rng.Intn(3) {
						case 0:
							h.Insert(key, key)
						case 1:
							h.Remove(key)
						default:
							h.Contains(key)
						}
					}
				}(th)
			}
			wg.Wait()
			keys := m.Keys()
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatalf("bottom list not sorted: %v", keys)
			}
			seen := make(map[int64]bool, len(keys))
			for _, k := range keys {
				if seen[k] {
					t.Fatalf("duplicate logically-present key %d", k)
				}
				seen[k] = true
			}
			// The map must still work after the storm.
			h := m.Handle(0)
			probe := int64(keySpace + 7)
			if !h.Insert(probe, probe) {
				t.Fatal("post-storm insert failed")
			}
			if !h.Contains(probe) {
				t.Fatal("post-storm contains failed")
			}
			if !h.Remove(probe) {
				t.Fatal("post-storm remove failed")
			}
		})
	}
}

// TestBuild bulk-loads every kind from an ascending stream: the keys are
// dealt evenly over the handles' local structures (sparse kinds keep only
// their top-level nodes), reads and mutations work from every handle, and
// the build refuses a stream that does not ascend or a map that is not
// empty.
func TestBuild(t *testing.T) {
	const n = 4000
	records := func(yield func(int64, int64) bool) {
		for k := int64(0); k < n; k++ {
			if !yield(2*k, k) {
				return
			}
		}
	}
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, 8)
			defer m.Close()
			if err := Build(m, 7, records); err != nil {
				t.Fatal(err)
			}
			if err := m.SharedStructure().Validate(); err != nil {
				t.Fatal(err)
			}
			if got := m.Len(); got != n {
				t.Fatalf("Len() = %d, want %d", got, n)
			}
			if m.Domain() != nil && m.Domain().Seq() != 7 {
				t.Fatalf("sequence %d after Build, want 7", m.Domain().Seq())
			}
			for th := 0; th < m.Threads(); th++ {
				h := m.Handle(th)
				if got := h.LocalTreeLen(); kind.sparse() && got == 0 || !kind.sparse() && got != n/m.Threads() {
					t.Fatalf("handle %d holds %d local entries", th, got)
				}
				for k := int64(th); k < n; k += 97 {
					if v, ok := h.Get(2 * k); !ok || v != k {
						t.Fatalf("handle %d: Get(%d) = (%d, %v)", th, 2*k, v, ok)
					}
					if h.Contains(2*k + 1) {
						t.Fatalf("handle %d: absent key %d found", th, 2*k+1)
					}
				}
				if !h.Insert(int64(2*n+th), 1) || !h.Remove(int64(2*th)) {
					t.Fatalf("handle %d: mutation after Build failed", th)
				}
			}
			if err := m.SharedStructure().Validate(); err != nil {
				t.Fatal(err)
			}
			if err := Build(m, 7, records); err == nil {
				t.Fatal("Build into a non-empty map succeeded")
			}
		})
	}
	m := newMap(t, LazyLayeredSG, 4)
	defer m.Close()
	err := Build(m, 1, func(yield func(int64, int64) bool) {
		for _, k := range []int64{1, 2, 2} {
			if !yield(k, k) {
				return
			}
		}
	})
	if err == nil {
		t.Fatal("Build accepted a repeated key")
	}
}
