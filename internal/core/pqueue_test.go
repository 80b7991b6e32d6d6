package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"layeredsg/internal/obs"
	"layeredsg/internal/stats"
)

// TestRemoveMinOrdering: exact pops return every key once, in ascending
// order, with its value, and Min peeks at the next one.
func TestRemoveMinOrdering(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, 4)
			h := m.Handle(0)
			if _, _, ok := h.RemoveMin(); ok {
				t.Fatal("RemoveMin on empty succeeded")
			}
			for _, k := range rand.New(rand.NewSource(3)).Perm(200) {
				if !h.Insert(int64(k), int64(k)*2) {
					t.Fatalf("Insert(%d) failed", k)
				}
			}
			if k, _, ok := h.Min(); !ok || k != 0 {
				t.Fatalf("Min = %d,%v", k, ok)
			}
			for want := int64(0); want < 200; want++ {
				k, v, ok := h.RemoveMin()
				if !ok || k != want || v != want*2 {
					t.Fatalf("RemoveMin = %d,%d,%v want %d", k, v, ok, want)
				}
			}
			if m.Len() != 0 {
				t.Fatalf("Len = %d after draining", m.Len())
			}
		})
	}
}

// TestPriorityQueueOpsTraced: RemoveMin, RemoveMinRelaxed and Min are
// traced as scans from the head, so the traced operation counts sum to the
// recorder's, and the index section, which sums the point operations'
// origins, counts only the inserts.
func TestPriorityQueueOpsTraced(t *testing.T) {
	machine := testMachine(t, 2)
	rec := stats.NewRecorder(machine, nil)
	tracer := obs.NewTracer(obs.TracerConfig{Name: "pqueue-traced"})
	defer tracer.Close()
	m, err := New[int64, int64](Config{
		Machine:  machine,
		Kind:     LazyLayeredSG,
		Recorder: rec,
		Tracer:   tracer,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	prev := obs.Enabled.Load()
	obs.Enabled.Store(true)
	defer obs.Enabled.Store(prev)

	h := m.Handle(0)
	for k := int64(0); k < 10; k++ {
		h.Insert(k, k)
	}
	for i := 0; i < 3; i++ {
		if k, _, ok := h.RemoveMin(); !ok || k != int64(i) {
			t.Fatalf("RemoveMin = %d,%v want %d", k, ok, i)
		}
	}
	if _, _, ok := h.RemoveMinRelaxed(0); !ok {
		t.Fatal("RemoveMinRelaxed found nothing")
	}
	if _, _, ok := h.Min(); !ok {
		t.Fatal("Min found nothing")
	}

	s := tracer.Snapshot()
	var traced uint64
	for _, op := range s.Ops {
		traced += op.Count
	}
	if ops := rec.ThreadRecorder(0).Ops(); traced != ops || ops != 15 {
		t.Fatalf("traced %d operations (%v), recorder counted %d, want 15 each", traced, s.Ops, ops)
	}
	if sc := s.Ops[obs.OpScan.String()]; sc.Count != 5 || sc.Origins[obs.OriginHead.String()] != 5 {
		t.Fatalf("scan = %+v, want 5 operations, all from the head", sc)
	}
	if x := s.Index; x == nil || x.Hits+x.Misses != 10 {
		t.Fatalf("index section = %+v, want hits and misses summing to the 10 inserts", x)
	}
}

// TestRemoveMinDuplicateKeyRejected: a second Insert of a queued key fails
// and leaves the first value to be popped.
func TestRemoveMinDuplicateKeyRejected(t *testing.T) {
	m := newMap(t, LayeredSG, 2)
	h := m.Handle(0)
	if !h.Insert(7, 1) || h.Insert(7, 2) {
		t.Fatal("duplicate key handling wrong")
	}
	if k, v, ok := h.RemoveMin(); !ok || k != 7 || v != 1 {
		t.Fatalf("RemoveMin = %d,%d,%v want 7,1,true", k, v, ok)
	}
}

// TestRemoveMinRelaxedDrainsExactlyOnce: sequential relaxed pops at the
// default spray width return every key once, with its value, then report
// the map empty.
func TestRemoveMinRelaxedDrainsExactlyOnce(t *testing.T) {
	m := newMap(t, LazyLayeredSG, 4)
	h := m.Handle(0)
	const n = 300
	for k := int64(0); k < n; k++ {
		if !h.Insert(k, k*2) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	seen := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		k, v, ok := h.RemoveMinRelaxed(0)
		if !ok {
			t.Fatalf("pop %d failed with %d left", i, m.Len())
		}
		if v != k*2 {
			t.Fatalf("value mismatch at %d", k)
		}
		if seen[k] {
			t.Fatalf("key %d popped twice", k)
		}
		seen[k] = true
	}
	if _, _, ok := h.RemoveMinRelaxed(0); ok {
		t.Fatal("pop on empty succeeded")
	}
}

// checkPoppedOnce fails unless the pops hold want keys, none twice.
func checkPoppedOnce(t *testing.T, pops [][]int64, want int) {
	t.Helper()
	var all []int64
	for _, p := range pops {
		all = append(all, p...)
	}
	if len(all) != want {
		t.Fatalf("popped %d want %d", len(all), want)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i := 1; i < len(all); i++ {
		if all[i] == all[i-1] {
			t.Fatalf("key %d popped twice", all[i])
		}
	}
}

// TestRemoveMinConcurrentProducersConsumers: with producers inserting while
// consumers pop, every inserted key is extracted exactly once — RemoveMin's
// linearizable extraction on the remove-helper CAS.
func TestRemoveMinConcurrentProducersConsumers(t *testing.T) {
	const producers, consumers = 4, 4
	const perProducer = 500
	m := newMap(t, LazyLayeredSG, producers+consumers)
	var wg, produced sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		produced.Add(1)
		go func(p int) {
			defer wg.Done()
			defer produced.Done()
			h := m.Handle(p)
			base := int64(p) * 100000
			for i := int64(0); i < perProducer; i++ {
				if !h.Insert(base+i, base+i) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { produced.Wait(); close(done) }()
	popped := make([][]int64, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := m.Handle(producers + c)
			for {
				if k, _, ok := h.RemoveMin(); ok {
					popped[c] = append(popped[c], k)
					continue
				}
				select {
				case <-done:
					// Producers finished; drain once more then exit.
					if k, _, ok := h.RemoveMin(); ok {
						popped[c] = append(popped[c], k)
						continue
					}
					return
				default:
				}
			}
		}(c)
	}
	wg.Wait()
	checkPoppedOnce(t, popped, producers*perProducer)
	if m.Len() != 0 {
		t.Fatalf("map not drained: %d left", m.Len())
	}
}

// TestRemoveMinRelaxedConcurrentConsumers: consumers racing relaxed pops
// over a preloaded map extract every key exactly once.
func TestRemoveMinRelaxedConcurrentConsumers(t *testing.T) {
	const producers, consumers = 2, 4
	const perProducer = 400
	m := newMap(t, LayeredSG, producers+consumers)
	for p := 0; p < producers; p++ {
		h := m.Handle(p)
		base := int64(p) * 10000
		for i := int64(0); i < perProducer; i++ {
			if !h.Insert(base+i, base+i) {
				t.Fatal("insert failed")
			}
		}
	}
	var wg sync.WaitGroup
	popped := make([][]int64, consumers)
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := m.Handle(producers + c)
			for {
				k, _, ok := h.RemoveMinRelaxed(0)
				if !ok {
					return
				}
				popped[c] = append(popped[c], k)
			}
		}(c)
	}
	wg.Wait()
	checkPoppedOnce(t, popped, producers*perProducer)
}
