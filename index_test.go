package layeredsg

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/core"
	"layeredsg/internal/node"
)

// TestIndexCrossHandle exercises the shared hash index's core promise: point
// operations resolve in O(1) from stripes that do not own the key. Keys are
// inserted round-robin from handles 1..3 only, so handle 0's local structures
// stay empty and every read/removal from it must go through the index (or
// fall back to descent and still be correct).
func TestIndexCrossHandle(t *testing.T) {
	const keys = 200
	for _, kind := range fuzzKinds {
		t.Run(kind.String(), func(t *testing.T) {
			machine := testMachine(t, 4)
			m, err := New[int64, int64](Config{Machine: machine, Kind: kind, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			for k := int64(0); k < keys; k++ {
				if !m.Handle(1+int(k)%3).Insert(k, k*10) {
					t.Fatalf("insert %d failed", k)
				}
			}
			h := m.Handle(0)
			for k := int64(0); k < keys; k++ {
				v, ok := h.Get(k)
				if !ok || v != k*10 {
					t.Fatalf("Get(%d) = %d, %v; want %d, true", k, v, ok, k*10)
				}
			}
			// Removals from the non-owning stripe, then reads of both halves.
			for k := int64(0); k < keys; k += 2 {
				if !h.Remove(k) {
					t.Fatalf("Remove(%d) failed", k)
				}
			}
			for k := int64(0); k < keys; k++ {
				want := k%2 == 1
				if got := h.Contains(k); got != want {
					t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
				}
			}
			// Reinsertion from the non-owning stripe (revival on the lazy
			// variants) must succeed and be visible everywhere. A lazy revival
			// restores the node's original value (the paper's I-ii); a fresh
			// insert carries the new one.
			lazy := kind == core.LazyLayeredSG || kind == core.LazyLayeredSSG
			for k := int64(0); k < keys; k += 2 {
				if !h.Insert(k, k*100) {
					t.Fatalf("reinsert %d failed", k)
				}
				v, ok := m.Handle(2).Get(k)
				if !ok {
					t.Fatalf("Get(%d) after reinsert: absent", k)
				}
				if lazy {
					if v != k*10 && v != k*100 {
						t.Fatalf("Get(%d) after reinsert = %d; want %d (revived) or %d (fresh)", k, v, k*10, k*100)
					}
				} else if v != k*100 {
					t.Fatalf("Get(%d) after reinsert = %d; want %d", k, v, k*100)
				}
			}
			if err := m.SharedStructure().Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIndexObsCounters verifies the index's observability wiring end to end:
// hits on cross-stripe reads, misses on absent keys, stale pruning when the
// index still holds a logically removed (marked but unretired) node, and the
// index's own counters and size in the tracer snapshot.
func TestIndexObsCounters(t *testing.T) {
	machine := testMachine(t, 4)
	tracer := NewTracer(TracerConfig{Name: "index-test"})
	defer tracer.Close()
	SetObservability(true)
	defer SetObservability(false)
	m, err := New[int64, int64](Config{
		Machine: machine,
		Kind:    core.LazyLayeredSG,
		Seed:    7,
		Tracer:  tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for k := int64(0); k < 64; k++ {
		m.Handle(1).Insert(k, k)
	}
	h := m.Handle(0)
	for k := int64(0); k < 64; k++ {
		if _, ok := h.Get(k); !ok {
			t.Fatalf("Get(%d) missed", k)
		}
	}
	for k := int64(100); k < 120; k++ {
		if h.Contains(k) {
			t.Fatalf("Contains(%d) = true for absent key", k)
		}
	}
	// The stale-prune path needs an index entry whose node is marked while
	// the entry still stands — in production a transient window between a
	// concurrent retirement's level-0 mark and the retire observer's
	// unpublish. Create that state deterministically by marking key 3's node
	// in place (preserving its links via CASMark): the next cross-stripe
	// read finds the entry, fails the liveness check, prunes it, and the
	// descent fallback reports the key absent.
	sg := m.SharedStructure()
	var target *node.Node[int64, int64]
	for n := sg.BottomHead().Next(0, nil); n != nil && n.IsData(); n = n.Next(0, nil) {
		if n.KeyEquals(3) {
			target = n
			break
		}
	}
	if target == nil {
		t.Fatal("key 3 not found in the bottom list")
	}
	if !target.CASMark(0, false, true, nil) {
		t.Fatal("could not mark key 3's node")
	}
	pruned := tracer.Snapshot().Index.Unpublishes
	if h.Contains(3) {
		t.Fatal("Contains(3) = true for a marked node")
	}
	s := tracer.Snapshot()
	if s.Index == nil {
		t.Fatal("snapshot has no index section")
	}
	if s.Index.Hits == 0 {
		t.Fatalf("index hits = 0, want > 0 (%+v)", s.Index)
	}
	if s.Index.Misses == 0 {
		t.Fatalf("index misses = 0, want > 0 (%+v)", s.Index)
	}
	if s.Index.Unpublishes == pruned {
		t.Fatalf("index unpublishes = %d before and after reading the marked node, want its entry pruned (%+v)", pruned, s.Index)
	}
	if s.Index.Publishes == 0 || s.Index.Entries == 0 || s.Index.Slots == 0 {
		t.Fatalf("index gauge not wired: %+v", s.Index)
	}
}

// TestIndexStaleGeneration drives the reclamation pipeline underneath the
// index: a population is removed, retired, and its arena slots reclaimed and
// reused by fresh keys. The retire observer must have unpublished the old
// entries — and even if a reader raced it, the per-life ID check fails closed
// — so reads of the dead keys from a non-owning stripe must miss, while the
// slot-reusing new keys resolve correctly.
func TestIndexStaleGeneration(t *testing.T) {
	// Past the reclamation floor of 4,096 dead nodes, so the passes retire
	// the oldest removals and free their slots.
	const keys = 4096 + 512
	machine := testMachine(t, 4)
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          machine,
		Kind:             core.LazyLayeredSG,
		Seed:             7,
		CommissionPeriod: 500,
		Clock:            func() int64 { return now.Add(50) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for k := int64(0); k < keys; k++ {
		m.Handle(1).Insert(k, k)
	}
	for k := int64(0); k < keys; k++ {
		if !m.Handle(1).Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	// Retire, relink, arm and free.
	for i := 0; i < 4; i++ {
		m.Reclaim()
	}
	if st := m.SharedStructure().ArenaStats(); st.SlotsReclaimed == 0 {
		t.Fatalf("no slots reclaimed (stats %+v); the test is not exercising reuse", st)
	}
	// Fresh keys from another stripe re-carve the reclaimed slots under new
	// life IDs.
	for k := int64(1 << 20); k < 1<<20+keys; k++ {
		if !m.Handle(2).Insert(k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	h := m.Handle(0)
	for k := int64(0); k < keys; k++ {
		if h.Contains(k) {
			t.Fatalf("Contains(%d) = true for a retired key whose slot may be reused", k)
		}
		if v, ok := h.Get(1<<20 + k); !ok || v != 1<<20+k {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", 1<<20+k, v, ok, 1<<20+k)
		}
	}
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexDriftPlateau churns fresh keys through a lazy map — at most 1,024
// live at a time, 24 k distinct — with a forced reclamation pass per cycle,
// and checks that the hash index's claimed slots stay within the bound the
// reclamation trigger keeps for arena slots (3 per live key plus the
// 4,096-node floor plus one check interval per stripe) instead of growing
// with every distinct key ever published.
func TestIndexDriftPlateau(t *testing.T) {
	tracer := NewTracer(TracerConfig{Name: "index-drift"})
	defer tracer.Close()
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          testMachine(t, 4),
		Kind:             core.LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
		Clock:            func() int64 { return now.Add(50) },
		Tracer:           tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := m.Handle(0)
	const (
		live   = 1024
		cycles = 24
	)
	ceiling := int64(3*live + 4096 + 1024*m.Threads())
	for c := int64(0); c < cycles; c++ {
		base := c * live
		for k := base; k < base+live; k++ {
			if !h.Insert(k, k) {
				t.Fatalf("cycle %d: Insert(%d) failed", c, k)
			}
		}
		for k := base; k < base+live; k++ {
			if !h.Remove(k) {
				t.Fatalf("cycle %d: Remove(%d) failed", c, k)
			}
		}
		m.Reclaim()
		if e := tracer.Snapshot().Index.Entries; e > ceiling {
			t.Fatalf("cycle %d: index holds %d entries after %d distinct keys with at most %d live (ceiling %d)",
				c, e, (c+1)*live, live, ceiling)
		}
	}
	for k := int64(0); k < cycles*live; k++ {
		if h.Contains(k) {
			t.Fatalf("Contains(%d) = true after its removal", k)
		}
	}
}

// TestTortureIndexReclaim is the explicit -race scenario for index ×
// reclamation: every thread churns a shared contended range while
// maintaining an owned range that is verified exactly — from a non-owning
// handle — at the end, and a goroutine forces reclamation passes throughout.
func TestTortureIndexReclaim(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	threads := clampThreads(8)
	const (
		ownedKeys = 200
		sharedOps = 4000
	)
	machine := testMachine(t, threads)
	m, err := New[int64, int64](Config{
		Machine:          machine,
		Kind:             core.LazyLayeredSG,
		Seed:             99,
		CommissionPeriod: 30 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var stop atomic.Bool
	passes := make(chan struct{})
	go func() {
		defer close(passes)
		for !stop.Load() {
			m.Reclaim()
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			h := m.Handle(th)
			rng := rand.New(rand.NewSource(int64(th) * 31))
			base := int64(1<<20) + int64(th)*10000
			for k := int64(0); k < ownedKeys; k++ {
				if !h.Insert(base+k, k) {
					t.Errorf("thread %d: owned insert %d failed", th, base+k)
					return
				}
				for j := 0; j < sharedOps/ownedKeys; j++ {
					key := rng.Int63n(256)
					switch rng.Intn(4) {
					case 0:
						h.Insert(key, key)
					case 1:
						h.Remove(key)
					case 2:
						h.Get(key)
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
	stop.Store(true)
	<-passes
	if t.Failed() {
		return
	}
	// Owned ranges verified from handle 0, which owns none of them: every
	// lookup crosses stripes through the index.
	h := m.Handle(0)
	for th := 1; th < threads; th++ {
		base := int64(1<<20) + int64(th)*10000
		for k := int64(0); k < ownedKeys; k++ {
			want := k%2 == 0
			if got := h.Contains(base + k); got != want {
				t.Fatalf("Contains(%d) = %v want %v", base+k, got, want)
			}
		}
	}
	// Validate needs a quiescent structure: a helper still reclaiming would
	// free a slot under the unpinned walk.
	m.Close()
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatal(err)
	}
}
