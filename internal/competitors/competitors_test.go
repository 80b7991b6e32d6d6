package competitors

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"layeredsg/internal/numa"
)

func machine(t *testing.T, threads int) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func algorithms() []Algorithm { return []Algorithm{NoHotspot, Rotating, NUMASK} }

func newMap(t *testing.T, alg Algorithm, threads int) *Map[int64, int64] {
	t.Helper()
	m, err := New[int64, int64](Config{
		Machine:         machine(t, threads),
		Algorithm:       alg,
		RebuildInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", alg, err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestValidation(t *testing.T) {
	if _, err := New[int64, int64](Config{Algorithm: NoHotspot}); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := New[int64, int64](Config{Machine: machine(t, 2), Algorithm: Algorithm(9)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSequentialModel(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			m := newMap(t, alg, 4)
			h := m.Handle(0)
			model := make(map[int64]bool)
			rng := rand.New(rand.NewSource(31))
			for i := 0; i < 4000; i++ {
				key := rng.Int63n(150)
				switch rng.Intn(3) {
				case 0:
					if got, want := h.Insert(key, key), !model[key]; got != want {
						t.Fatalf("op %d Insert(%d)=%v want %v", i, key, got, want)
					}
					model[key] = true
				case 1:
					if got, want := h.Remove(key), model[key]; got != want {
						t.Fatalf("op %d Remove(%d)=%v want %v", i, key, got, want)
					}
					delete(model, key)
				default:
					if got := h.Contains(key); got != model[key] {
						t.Fatalf("op %d Contains(%d)=%v want %v", i, key, got, model[key])
					}
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("Len=%d model=%d", m.Len(), len(model))
			}
		})
	}
}

// TestIndexJumpCorrectness forces index rebuilds between operations so that
// searches actually jump through (possibly stale) snapshots, then mutates
// heavily: stale index entries must never produce wrong answers.
func TestIndexJumpCorrectness(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			m := newMap(t, alg, 2)
			h := m.Handle(0)
			model := make(map[int64]bool)
			rng := rand.New(rand.NewSource(41))
			for round := 0; round < 30; round++ {
				for i := 0; i < 100; i++ {
					key := rng.Int63n(400)
					if rng.Intn(2) == 0 {
						h.Insert(key, key)
						model[key] = true
					} else {
						h.Remove(key)
						delete(model, key)
					}
				}
				m.Rebuild() // snapshot now reflects this round
				if m.IndexLen(0) == 0 && len(model) > 0 {
					t.Fatal("rebuild produced empty index over non-empty map")
				}
				// Next round's ops will consult a snapshot that goes stale as
				// we mutate. Spot-check contains against the model.
				for i := 0; i < 100; i++ {
					key := rng.Int63n(400)
					if got := h.Contains(key); got != model[key] {
						t.Fatalf("round %d: Contains(%d)=%v want %v", round, key, got, model[key])
					}
				}
			}
		})
	}
}

func TestNUMASKPerZoneIndexes(t *testing.T) {
	m := newMap(t, NUMASK, 16) // 2 nodes → 2 indexes
	if len(m.indexes) != 2 {
		t.Fatalf("zones = %d want 2", len(m.indexes))
	}
	h := m.Handle(0)
	for k := int64(0); k < 50; k++ {
		h.Insert(k, k)
	}
	m.Rebuild()
	if m.IndexLen(0) == 0 || m.IndexLen(1) == 0 {
		t.Fatal("zone indexes not built")
	}
	// Zone index owners must live in their zone.
	for z, owner := range m.owners {
		if int(owner.Node) != z {
			t.Fatalf("zone %d index owned by node %d", z, owner.Node)
		}
	}
	// Threads consult their own zone's index.
	if m.Handle(0).zone == m.Handle(15).zone {
		t.Fatal("threads on different sockets share a zone")
	}
	other := newMap(t, NoHotspot, 16)
	if len(other.indexes) != 1 {
		t.Fatal("nohotspot should have one shared index")
	}
}

func TestBackgroundMaintenanceRuns(t *testing.T) {
	m := newMap(t, Rotating, 2)
	h := m.Handle(0)
	for k := int64(0); k < 200; k++ {
		h.Insert(k, k)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.IndexLen(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background maintenance never rebuilt the index")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestConcurrentWithMaintenance(t *testing.T) {
	const threads = 8
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			m := newMap(t, alg, threads)
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := m.Handle(th)
					rng := rand.New(rand.NewSource(int64(th) + 50))
					for i := 0; i < 3000; i++ {
						k := rng.Int63n(128)
						switch rng.Intn(3) {
						case 0:
							h.Insert(k, k)
						case 1:
							h.Remove(k)
						default:
							h.Contains(k)
						}
					}
				}(th)
			}
			wg.Wait()
			keys := m.Keys()
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("bottom list unsorted/duplicated: %v", keys)
				}
			}
		})
	}
}

func TestTowerVsWheelSelection(t *testing.T) {
	hot := newMap(t, NoHotspot, 2)
	h := hot.Handle(0)
	for k := int64(0); k < 64; k++ {
		h.Insert(k, k)
	}
	hot.Rebuild()
	if hot.live[0] == nil {
		t.Fatal("nohotspot should maintain a live tower index")
	}
	if got := hot.IndexLen(0); got != 32 { // stride 2 over 64 keys
		t.Fatalf("live index len = %d want 32", got)
	}
	rot := newMap(t, Rotating, 2)
	rh := rot.Handle(0)
	for k := int64(0); k < 64; k++ {
		rh.Insert(k, k)
	}
	rot.Rebuild()
	if rot.live[0] != nil {
		t.Fatal("rotating should use the contiguous wheel form")
	}
	if rot.indexes[0].Load() == nil || len(rot.indexes[0].Load().entries) == 0 {
		t.Fatal("rotating wheel snapshot missing")
	}
}

// TestLiveIndexAdaptation: the adaptation pass must drop towers of dead
// nodes and index new ones incrementally.
func TestLiveIndexAdaptation(t *testing.T) {
	m := newMap(t, NoHotspot, 2)
	h := m.Handle(0)
	for k := int64(0); k < 100; k++ {
		h.Insert(k, k)
	}
	m.Rebuild()
	before := m.IndexLen(0)
	if before == 0 {
		t.Fatal("index empty after first adaptation")
	}
	// Kill the first half; the next pass must unlink those towers.
	for k := int64(0); k < 50; k++ {
		h.Remove(k)
	}
	m.Rebuild()
	after := m.IndexLen(0)
	if after >= before {
		t.Fatalf("index did not shrink: %d → %d", before, after)
	}
	// Lookups through the adapted index stay correct.
	for k := int64(0); k < 100; k++ {
		if got, want := h.Contains(k), k >= 50; got != want {
			t.Fatalf("Contains(%d)=%v want %v", k, got, want)
		}
	}
	// Reinsert: towers come back.
	for k := int64(0); k < 50; k++ {
		h.Insert(k, k)
	}
	m.Rebuild()
	if m.IndexLen(0) <= after {
		t.Fatal("index did not regrow after reinsertion")
	}
}

// TestLiveIndexDensityAfterRemovals: removing an odd number of leading keys
// shifts every surviving tower to an odd position among the live nodes; the
// next pass must still index at most one node in stride, not every node the
// towers skip. Only the explicit passes run (the background one is an hour
// away), so the sequence is deterministic.
func TestLiveIndexDensityAfterRemovals(t *testing.T) {
	m, err := New[int64, int64](Config{Machine: machine(t, 2), Algorithm: NoHotspot, RebuildInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	h := m.Handle(0)
	for k := int64(0); k < 100; k++ {
		h.Insert(k, k)
	}
	m.Rebuild()
	for k := int64(0); k < 49; k++ {
		h.Remove(k)
	}
	m.Rebuild()
	const live, stride = 51, 2 // NoHotspot's default stride
	if got, limit := m.IndexLen(0), (live+stride-1)/stride+1; got > limit {
		t.Fatalf("%d towers over %d live nodes at stride %d, want at most %d", got, live, stride, limit)
	}
	for k := int64(0); k < 100; k++ {
		if got, want := h.Contains(k), k >= 49; got != want {
			t.Fatalf("Contains(%d)=%v want %v", k, got, want)
		}
	}
}
