package layeredsg

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"layeredsg/internal/core"
)

// TestTorture subjects every algorithm to a heavier mixed workload than the
// unit tests: each thread owns a deterministic key range (verified exactly
// at the end) *and* churns a shared contended range (verified structurally).
// Run with -short to skip.
func TestTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	threads := clampThreads(8)
	const (
		ownedKeys = 300
		sharedOps = 5000
	)
	for _, name := range Algorithms() {
		t.Run(name, func(t *testing.T) {
			machine := testMachine(t, threads)
			a, err := NewAdapter(name, machine, AdapterOptions{
				KeySpace:         1 << 12,
				CommissionPeriod: 30 * time.Microsecond,
				Seed:             99,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := a.Handle(th)
					rng := rand.New(rand.NewSource(int64(th) * 31))
					base := int64(1<<20) + int64(th)*10000
					// Interleave deterministic owned-range work with shared
					// chaos.
					for k := int64(0); k < ownedKeys; k++ {
						if !h.Insert(base+k, k) {
							t.Errorf("thread %d: owned insert %d failed", th, base+k)
							return
						}
						for j := 0; j < sharedOps/ownedKeys; j++ {
							key := rng.Int63n(512)
							switch rng.Intn(3) {
							case 0:
								h.Insert(key, key)
							case 1:
								h.Remove(key)
							default:
								h.Contains(key)
							}
						}
						if k%2 == 1 {
							if !h.Remove(base + k) {
								t.Errorf("thread %d: owned remove %d failed", th, base+k)
								return
							}
						}
						runtime.Gosched()
					}
				}(th)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Owned ranges: exact.
			h := a.Handle(0)
			for th := 0; th < threads; th++ {
				base := int64(1<<20) + int64(th)*10000
				for k := int64(0); k < ownedKeys; k++ {
					want := k%2 == 0
					if got := h.Contains(base + k); got != want {
						t.Fatalf("Contains(%d) = %v want %v", base+k, got, want)
					}
				}
			}
		})
	}
}

// TestTorturePackedRefs runs the owned-range + shared-chaos workload of
// TestTorture straight through the layered maps' handles, so the packed
// arena-word CAS protocol (link, mark, revive, retire) runs under real
// concurrency on each layered skip-graph variant. It then checks the owned
// ranges exactly, the shared structure's invariants, and that the arena
// served the map's nodes.
func TestTorturePackedRefs(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	threads := clampThreads(8)
	const (
		ownedKeys = 200
		sharedOps = 4000
	)
	for _, kind := range []Kind{LayeredSG, LazyLayeredSG, LayeredSSG} {
		t.Run(kind.String()+"/packed", func(t *testing.T) {
			machine := testMachine(t, threads)
			m, err := New[int64, int64](Config{
				Machine:          machine,
				Kind:             kind,
				CommissionPeriod: 30 * time.Microsecond,
				Seed:             99,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := m.Handle(th)
					rng := rand.New(rand.NewSource(int64(th) * 17))
					base := int64(1<<20) + int64(th)*10000
					for k := int64(0); k < ownedKeys; k++ {
						if !h.Insert(base+k, k) {
							t.Errorf("thread %d: owned insert %d failed", th, base+k)
							return
						}
						for j := 0; j < sharedOps/ownedKeys; j++ {
							key := rng.Int63n(512)
							switch rng.Intn(3) {
							case 0:
								h.Insert(key, key)
							case 1:
								h.Remove(key)
							default:
								h.Contains(key)
							}
						}
						if k%2 == 1 {
							if !h.Remove(base + k) {
								t.Errorf("thread %d: owned remove %d failed", th, base+k)
								return
							}
						}
						runtime.Gosched()
					}
				}(th)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			h := m.Handle(0)
			for th := 0; th < threads; th++ {
				base := int64(1<<20) + int64(th)*10000
				for k := int64(0); k < ownedKeys; k++ {
					want := k%2 == 0
					if got := h.Contains(base + k); got != want {
						t.Fatalf("Contains(%d) = %v want %v", base+k, got, want)
					}
				}
			}
			if err := m.SharedStructure().Validate(); err != nil {
				t.Fatal(err)
			}
			// Every owned key was new when inserted, so each took a slot.
			if st := m.SharedStructure().ArenaStats(); st.SlotsUsed < uint64(threads*ownedKeys) {
				t.Fatalf("arena carved %d slots for %d owned inserts: %+v", st.SlotsUsed, threads*ownedKeys, st)
			}
		})
	}
}

// TestJitteryClock injects a non-monotonic clock into the lazy protocol: the
// commission logic must stay safe (no panics, no lost keys) even when time
// jumps backwards.
func TestJitteryClock(t *testing.T) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(5))
	now := int64(0)
	clock := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		now += rng.Int63n(100000) - 20000 // mostly forward, sometimes backward
		return now
	}
	machine := testMachine(t, 4)
	m, err := core.New[int64, int64](core.Config{
		Machine:          machine,
		Kind:             core.LazyLayeredSG,
		CommissionPeriod: time.Microsecond,
		Clock:            clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			h := m.Handle(th)
			r := rand.New(rand.NewSource(int64(th)))
			for i := 0; i < 3000; i++ {
				key := r.Int63n(64)
				switch r.Intn(3) {
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
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("bottom list corrupted under jittery clock: %v", keys)
		}
	}
	h := m.Handle(0)
	probe := int64(100)
	if !h.Insert(probe, 1) || !h.Contains(probe) || !h.Remove(probe) {
		t.Fatal("map broken after jittery-clock run")
	}
}
