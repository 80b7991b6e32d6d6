package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/numa"
	"layeredsg/internal/skipgraph"
)

// newLazyMap builds a lazy layered map with explicit control over the
// maintenance-related config knobs.
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
	t.Run("bad maintenance policy rejected", func(t *testing.T) {
		if _, err := New[int64, int64](Config{Machine: testMachine(t, 4), Kind: LazyLayeredSG, Maintenance: MaintenancePolicy(9)}); err == nil {
			t.Fatal("unknown maintenance policy accepted")
		}
	})
}

func TestMaintenanceEngineOnlyForLazyNonInline(t *testing.T) {
	inline := newLazyMap(t, Config{Machine: testMachine(t, 4)})
	if inline.Maintenance() != nil {
		t.Fatal("inline policy built an engine")
	}
	nonLazy := newLazyMap(t, Config{Machine: testMachine(t, 4), Kind: LayeredSG, Maintenance: MaintBackground})
	if nonLazy.Maintenance() != nil {
		t.Fatal("non-lazy variant built an engine")
	}
	bg := newLazyMap(t, Config{Machine: testMachine(t, 4), Maintenance: MaintBackground})
	if bg.Maintenance() == nil {
		t.Fatal("background policy built no engine")
	}
}

// TestBackgroundGarbageBounded is the regression test for the capped
// commission period working together with background retirement: after a
// remove-everything workload quiesces and the engine drains, marked-but-linked
// garbage in the bottom list must be (nearly) gone, not proportional to the
// key count.
func TestBackgroundGarbageBounded(t *testing.T) {
	const n = 128
	var clock atomic.Int64
	clock.Store(1)
	m := newLazyMap(t, Config{
		Machine:     testMachine(t, 4),
		Maintenance: MaintBackground,
		Clock:       clock.Load,
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
	// A read sweep from a *different* handle (whose local structures are
	// empty, so every lookup really searches) makes the traversals observe
	// every invalid node and hand it to the engine — inside its commission
	// period, so nothing retires yet.
	other := m.Handle(1)
	for i := int64(0); i < n; i++ {
		if other.Contains(i) {
			t.Fatalf("removed key %d still present", i)
		}
	}
	commission := m.SharedStructure().CommissionPeriod()
	clock.Add(2 * int64(commission))
	// Close drains: every observed expired node is retired and unlinked.
	m.Close()
	linked := 0
	sg := m.SharedStructure()
	for cur := sg.BottomHead().RawNext(0); cur != nil && cur.IsData(); cur = cur.RawNext(0) {
		linked++
	}
	if linked > 8 {
		t.Fatalf("%d of %d removed nodes still physically linked after drain", linked, n)
	}
	if got := m.Len(); got != 0 {
		t.Fatalf("Len = %d after removing everything", got)
	}
	if err := sg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestBackgroundPolicies runs a small concurrent workload under the
// background policy and checks the map still behaves like a map, survives
// Close mid-quiescence, and keeps working inline afterwards.
func TestBackgroundPolicies(t *testing.T) {
	t.Run(MaintBackground.String(), func(t *testing.T) {
		const threads, perThread = 4, 200
		m := newLazyMap(t, Config{
			Machine:     testMachine(t, threads),
			Maintenance: MaintBackground,
		})
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := m.Handle(th)
				base := int64(th * perThread)
				for i := int64(0); i < perThread; i++ {
					h.Insert(base+i, i)
				}
				for i := int64(0); i < perThread; i += 2 {
					h.Remove(base + i)
				}
			}(th)
		}
		wg.Wait()
		m.Close()
		if got, want := m.Len(), threads*perThread/2; got != want {
			t.Fatalf("Len = %d want %d", got, want)
		}
		if err := m.SharedStructure().Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		// The map stays usable after Close: maintenance falls back to
		// the paper's inline protocol.
		h := m.Handle(0)
		if !h.Insert(1<<30, 1) || !h.Contains(1<<30) || !h.Remove(1<<30) {
			t.Fatal("map unusable after Close")
		}
		m.Close() // Idempotent.
	})
}
