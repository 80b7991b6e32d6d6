package core

import (
	"math/rand"
	"testing"
	"time"
)

// TestLossyIndex checks the shared index's lossy contract: a point operation
// answers correctly whether or not the index holds its key. Random
// Insert/Remove/Get over 64 keys run from 4 handles; before each operation,
// with probability ½, the key's index entry is unpublished, so the operation
// falls back to a descent seeded from the handle's local structure, which may
// hold the key's own node. Every result is checked against a model, then the
// structure's invariants and Len. The reclaim leg forces reclamation passes
// as it goes, so retirements and slot reuse interleave with the misses.
func TestLossyIndex(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			runLossyIndex(t, newMap(t, kind, 4), nil)
		})
	}
	t.Run("lazy_layered_sg_reclaim", func(t *testing.T) {
		m := newLazyMap(t, Config{CommissionPeriod: time.Microsecond})
		runLossyIndex(t, m, func() { m.Reclaim() })
	})
}

func runLossyIndex(t *testing.T, m *Map[int64, int64], reclaim func()) {
	const keys, ops = 64, 4000
	rng := rand.New(rand.NewSource(int64(m.Kind())))
	model := map[int64]bool{}
	for i := 0; i < ops; i++ {
		key := rng.Int63n(keys)
		h := m.Handle(rng.Intn(4))
		if rng.Intn(2) == 0 {
			if n, _, ok := m.hidx.Lookup(key); ok {
				m.hidx.Unpublish(key, n)
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
	}
	m.Close()
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := m.Len(); got != len(model) {
		t.Fatalf("Len = %d, model has %d", got, len(model))
	}
}
