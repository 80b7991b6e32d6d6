package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"layeredsg/internal/stats"
)

func TestAscendOrdered(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := newMap(t, kind, 4)
			h := m.Handle(0)
			keys := rand.New(rand.NewSource(2)).Perm(300)
			for _, k := range keys {
				h.Insert(int64(k), int64(k)*2)
			}
			for k := int64(0); k < 300; k += 3 {
				h.Remove(k)
			}
			var got []int64
			h.Ascend(100, func(k, v int64) bool {
				if v != k*2 {
					t.Fatalf("value mismatch at %d", k)
				}
				got = append(got, k)
				return true
			})
			var want []int64
			for k := int64(100); k < 300; k++ {
				if k%3 != 0 {
					want = append(want, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("got %d keys want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order mismatch at %d: %d vs %d", i, got[i], want[i])
				}
			}
			if c := h.Count(10, 19); c != h.Count(10, 19) || c == 0 {
				t.Fatalf("Count unstable or zero: %d", c)
			}
		})
	}
}

func TestAscendEarlyStop(t *testing.T) {
	m := newMap(t, LayeredSG, 2)
	h := m.Handle(0)
	for k := int64(0); k < 50; k++ {
		h.Insert(k, k)
	}
	visited := 0
	h.Ascend(0, func(k, _ int64) bool {
		visited++
		return k < 9
	})
	if visited != 10 {
		t.Fatalf("visited %d want 10", visited)
	}
}

// TestRemoveMinRelaxedOneOp: a relaxed pop whose spray finds nothing falls
// back to the exact pop inside the same operation — one recorded op and one
// tick of the reclamation trigger's counter, not two.
func TestRemoveMinRelaxedOneOp(t *testing.T) {
	machine := testMachine(t, 4)
	m, err := New[int64, int64](Config{
		Machine:  machine,
		Kind:     LazyLayeredSG,
		Recorder: stats.NewRecorder(machine, nil),
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := m.Handle(0)
	tr := m.cfg.Recorder.ThreadRecorder(0)
	ops, ticks := tr.Ops(), h.ops
	if _, _, ok := h.RemoveMinRelaxed(2); ok {
		t.Fatal("relaxed pop on an empty map succeeded")
	}
	if got := tr.Ops() - ops; got != 1 {
		t.Fatalf("relaxed pop recorded %d ops, want 1", got)
	}
	if got := h.ops - ticks; got != 1 {
		t.Fatalf("relaxed pop ticked the reclamation trigger %d times, want 1", got)
	}
}

func TestRemoveMinRelaxed(t *testing.T) {
	m := newMap(t, LazyLayeredSG, 4)
	h := m.Handle(0)
	const n = 400
	for k := int64(0); k < n; k++ {
		h.Insert(k, k)
	}
	popped := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		k, v, ok := h.RemoveMinRelaxed(3)
		if !ok {
			t.Fatalf("pop %d failed with %d left", i, m.Len())
		}
		if v != k {
			t.Fatalf("value mismatch: %d/%d", k, v)
		}
		if popped[k] {
			t.Fatalf("key %d popped twice", k)
		}
		popped[k] = true
	}
	if _, _, ok := h.RemoveMinRelaxed(3); ok {
		t.Fatal("pop on empty succeeded")
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d", m.Len())
	}
}

// TestRemoveMinReinsert pops a key and inserts it again on every kind. A pop
// must close the node's life like Remove does: a lazy revival waits for the
// remover's dead stamp, so a pop that skips it hangs the next Insert, and a
// non-lazy pop must drop the key's index entry.
func TestRemoveMinReinsert(t *testing.T) {
	pops := map[string]func(h *Handle[int64, int64]) (int64, int64, bool){
		"exact":   (*Handle[int64, int64]).RemoveMin,
		"relaxed": func(h *Handle[int64, int64]) (int64, int64, bool) { return h.RemoveMinRelaxed(2) },
	}
	for _, kind := range allKinds() {
		for name, pop := range pops {
			t.Run(kind.String()+"/"+name, func(t *testing.T) {
				m := newMap(t, kind, 4)
				h := m.Handle(0)
				done := make(chan string, 1)
				go func() {
					for round := 0; round < 3; round++ {
						if !h.Insert(5, 50) {
							done <- "Insert(5) after a pop = false"
							return
						}
						if k, _, ok := pop(h); !ok || k != 5 {
							done <- "pop did not return key 5"
							return
						}
						if u := m.hidx.Stats().Unpublishes; u != uint64(round+1) && !kind.lazy() {
							done <- "index entry survived a non-lazy pop"
							return
						}
					}
					done <- ""
				}()
				select {
				case msg := <-done:
					if msg != "" {
						t.Fatal(msg)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Insert after a pop hung: the pop left no dead stamp")
				}
				if h.Contains(5) {
					t.Fatal("key 5 present after its last pop")
				}
			})
		}
	}
}

// TestRelaxedOrderQuality: relaxed pops should stay near the front — the
// p-th pop should be within a small window of p.
func TestRelaxedOrderQuality(t *testing.T) {
	m := newMap(t, LayeredSG, 8)
	h := m.Handle(0)
	const n = 1000
	for k := int64(0); k < n; k++ {
		h.Insert(k, k)
	}
	var seq []int64
	for i := 0; i < 200; i++ {
		k, _, ok := h.RemoveMinRelaxed(2)
		if !ok {
			t.Fatal("pop failed")
		}
		seq = append(seq, k)
	}
	sorted := append([]int64(nil), seq...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// All 200 pops must come from (roughly) the first few hundred keys: the
	// spray width bounds the rank error.
	if max := sorted[len(sorted)-1]; max > 500 {
		t.Fatalf("relaxed pop wandered too far: popped key %d", max)
	}
}

// TestSparseLocalStructuresSmaller is the paper's Sec. 2 claim that sparse
// skip graphs make the local structures sparse too: only elements that reach
// the top level enter them, so a thread's ordered local view holds ~1/2^MaxLevel
// of its insertions (vs. all of them in the non-sparse variant).
func TestSparseLocalStructuresSmaller(t *testing.T) {
	const n = 4000
	dense := newMap(t, LayeredSG, 8) // MaxLevel 2
	hDense := dense.Handle(0)
	for k := int64(0); k < n; k++ {
		hDense.Insert(k, k)
	}
	if got := hDense.LocalTreeLen(); got != n {
		t.Fatalf("dense local tree = %d want %d", got, n)
	}

	sparse := newMap(t, LayeredSSG, 8)
	hSparse := sparse.Handle(0)
	for k := int64(0); k < n; k++ {
		hSparse.Insert(k, k)
	}
	got := float64(hSparse.LocalTreeLen()) / n
	want := 1.0 / float64(int(1)<<uint(sparse.MaxLevel()))
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("sparse local tree fraction %.4f want ≈%.4f", got, want)
	}
}
