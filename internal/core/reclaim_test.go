package core

import (
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/numa"
	"layeredsg/internal/obs"
	"layeredsg/internal/skipgraph"
)

// newLazyMap builds a lazy layered map with explicit control over the
// commission period and clock.
func newLazyMap(t *testing.T, cfg Config) *Map[int64, int64] {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = testMachine(t, 4)
	}
	if cfg.Kind == 0 {
		cfg.Kind = LazyLayeredSG
	}
	cfg.Seed = 42
	m, err := New[int64, int64](cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestCommissionDerivation(t *testing.T) {
	period := func(t *testing.T, cfg Config) time.Duration {
		t.Helper()
		return newLazyMap(t, cfg).SharedStructure().CommissionPeriod()
	}
	t.Run("default is per-thread times machine threads", func(t *testing.T) {
		if got := period(t, Config{Machine: testMachine(t, 8)}); got != 8*skipgraph.DefaultCommissionPerThread {
			t.Fatalf("commission %v, want %v", got, 8*skipgraph.DefaultCommissionPerThread)
		}
	})
	t.Run("derived period is capped", func(t *testing.T) {
		topo, err := numa.New(2, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		machine, err := numa.Pin(topo, 24) // 24 × 100 µs passes the 2 ms cap
		if err != nil {
			t.Fatal(err)
		}
		if got := period(t, Config{Machine: machine}); got != skipgraph.DefaultCommissionCap {
			t.Fatalf("commission %v, want cap %v", got, skipgraph.DefaultCommissionCap)
		}
	})
	t.Run("explicit period wins over derivation and cap", func(t *testing.T) {
		if got := period(t, Config{Machine: testMachine(t, 8), CommissionPeriod: 7 * time.Millisecond}); got != 7*time.Millisecond {
			t.Fatalf("commission %v, want 7ms", got)
		}
	})
}

// TestReclaimOnlyForLazy: Reclaim runs a pass on lazy maps and is a no-op on
// non-lazy ones, which have no epoch domain and never free a slot.
func TestReclaimOnlyForLazy(t *testing.T) {
	lazy := newLazyMap(t, Config{Machine: testMachine(t, 4)})
	if st := lazy.Reclaim(); st.Passes != 1 {
		t.Fatalf("lazy Reclaim ran %d passes, want 1", st.Passes)
	}
	nonLazy := newLazyMap(t, Config{Machine: testMachine(t, 4), Kind: LayeredSG})
	nonLazy.Handle(0).Insert(1, 1)
	nonLazy.Handle(0).Remove(1)
	if st := nonLazy.Reclaim(); st != (obs.ReclaimStats{}) {
		t.Fatalf("non-lazy Reclaim = %+v, want zero", st)
	}
}

// TestReclaimGarbageBounded: after a remove-everything workload past the
// reclamation floor quiesces, forced passes retire the oldest dead nodes
// beyond the floor and unlink them, so the bottom list holds the floor's
// dead nodes and nothing else, the retired ones are gone from the local
// structure once the handle erases the freed entries, and removed keys
// still read absent.
func TestReclaimGarbageBounded(t *testing.T) {
	const n = reclaimFloor + 512
	var clock atomic.Int64
	clock.Store(1)
	m := newLazyMap(t, Config{
		Machine: testMachine(t, 4),
		Clock:   clock.Load,
	})
	h := m.Handle(0)
	for i := int64(0); i < n; i++ {
		if !h.Insert(i, i) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := int64(0); i < n; i++ {
		if !h.Remove(i) {
			t.Fatalf("remove %d failed", i)
		}
	}
	commission := m.SharedStructure().CommissionPeriod()
	clock.Add(2 * int64(commission))
	for i := 0; i < 3; i++ {
		m.Reclaim()
	}
	st := m.Reclaim()
	if st.Retired != n-reclaimFloor || st.Freed != n-reclaimFloor || st.LimboDepth != 0 {
		t.Fatalf("reclaim stats %+v, want %d retired and freed, empty limbo", st, n-reclaimFloor)
	}
	linked := 0
	sg := m.SharedStructure()
	for cur := sg.BottomHead().RawNext(0); cur != nil && cur.IsData(); cur = cur.RawNext(0) {
		if cur.Key() < n-reclaimFloor {
			t.Fatalf("key %d, among the oldest dead nodes, still linked", cur.Key())
		}
		linked++
	}
	if linked != reclaimFloor {
		t.Fatalf("%d dead nodes linked after the passes, want the floor's %d", linked, reclaimFloor)
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("Len = %d after removing everything", got)
	}
	if err := sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// An index hit on a kept dead node answers without a search, so the only
	// change to the local structure is the erasure of the freed nodes'
	// entries at the operation's start.
	if h.Contains(n - 1) {
		t.Fatal("a removed key reads present")
	}
	if got := h.LocalTreeLen(); got != reclaimFloor {
		t.Fatalf("local structure holds %d entries after the erasure, want %d", got, reclaimFloor)
	}
	if h.Contains(0) {
		t.Fatal("a retired key reads present")
	}
}

// TestUpdateStartAfterPrunedEntry: a retry whose jump entry an earlier
// updateStartFrom pruned must seed from the next usable entry below, not
// from the head. lazyInsert and lazyRemove hold the iterator getStart
// returned across retries, and FinishInsert's restart closure holds it
// across restarts, so Prev from an iterator whose own entry is gone must
// still find the entries below its key.
func TestUpdateStartAfterPrunedEntry(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1)
	m := newLazyMap(t, Config{Clock: clock.Load})
	h := m.Handle(0)
	for _, k := range []int64{10, 20, 30} {
		if !h.Insert(k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	h.pin.Pin()
	it := h.getStart(35)
	h.pin.Unpin()
	if !it.Valid() || it.Key() != 30 {
		t.Fatal("getStart(35) did not stop at 30")
	}
	n30 := it.Value().N
	if !h.Remove(30) {
		t.Fatal("remove 30 failed")
	}
	clock.Add(2 * int64(m.SharedStructure().CommissionPeriod()))
	if !m.sg.Retire(n30, h.tr) {
		t.Fatal("Retire(30) failed")
	}
	h.pin.Pin()
	defer h.pin.Unpin()
	for call := 1; call <= 2; call++ {
		switch start := h.updateStartFrom(it); {
		case start == nil:
			t.Fatalf("updateStartFrom call %d seeds at the head, want 20", call)
		case start.Key() != 20:
			t.Fatalf("updateStartFrom call %d seeds at %d, want 20", call, start.Key())
		}
	}
}
