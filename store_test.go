package layeredsg

import (
	"bytes"
	"context"
	"math/rand"
	"runtime/pprof"
	"sync"
	"testing"
)

func testStore(t *testing.T, threads int, kind Kind) *Store[int64, int64] {
	t.Helper()
	st, err := NewStore[int64, int64](Config{
		Machine: testMachine(t, threads),
		Kind:    kind,
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	return st
}

func TestStoreBasicOps(t *testing.T) {
	st := testStore(t, 4, LazyLayeredSG)
	if !st.Insert(1, 10) {
		t.Fatal("first insert of key 1 failed")
	}
	if st.Insert(1, 11) {
		t.Fatal("duplicate insert of key 1 succeeded")
	}
	if v, ok := st.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v; want 10,true", v, ok)
	}
	if !st.Contains(1) {
		t.Fatal("Contains(1) = false")
	}
	if !st.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	if st.Remove(1) {
		t.Fatal("second Remove(1) succeeded")
	}
	if st.Contains(1) {
		t.Fatal("Contains(1) after remove")
	}
}

// goroutineHasLabel reports whether any goroutine in the process currently
// wears the given pprof label pair, by grepping the debug=1 goroutine
// profile (the only way to read goroutine labels back). The tests below use
// process-unique label values, so "any goroutine" pins down the caller.
func goroutineHasLabel(t *testing.T, key, value string) bool {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatalf("goroutine profile: %v", err)
	}
	return bytes.Contains(buf.Bytes(), []byte(`"`+key+`":"`+value+`"`))
}

// TestStoreLeaseLabelRestore checks that a Store leaves the caller's pprof
// labels alone: with observability on, the caller's labels are present
// inside a Do lease and after Do, Acquire/Release and Get return (the
// sbench worker-attribution regression).
func TestStoreLeaseLabelRestore(t *testing.T) {
	st := testStore(t, 2, LazyLayeredSG)
	SetObservability(true)
	defer SetObservability(false)

	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("store_test_caller", "label_restore_probe")))
	defer pprof.SetGoroutineLabels(context.Background())
	hasCaller := func() bool { return goroutineHasLabel(t, "store_test_caller", "label_restore_probe") }

	inside := false
	st.Do(func(h *Handle[int64, int64]) {
		h.Insert(1, 1)
		inside = hasCaller()
	})
	if !inside {
		t.Error("a Do lease replaced the caller's goroutine labels")
	}
	if !hasCaller() {
		t.Error("Do cleared the caller's goroutine labels on release")
	}

	l := st.Acquire()
	l.Handle().Insert(2, 2)
	l.Release()
	if !hasCaller() {
		t.Error("Acquire/Release cleared the caller's goroutine labels")
	}

	if _, ok := st.Get(2); !ok {
		t.Error("Get(2) missed a key inserted through a lease")
	}
	if !hasCaller() {
		t.Error("Get cleared the caller's goroutine labels")
	}
}

func TestStoreRangeScan(t *testing.T) {
	st := testStore(t, 4, LayeredSG)
	for k := int64(0); k < 20; k++ {
		st.Insert(k, k*2)
	}
	var keys []int64
	st.RangeScan(5, 9, func(k, v int64) bool {
		if v != k*2 {
			t.Errorf("key %d has value %d, want %d", k, v, k*2)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 5 || keys[0] != 5 || keys[4] != 9 {
		t.Fatalf("RangeScan(5,9) visited %v, want [5 6 7 8 9]", keys)
	}
	// Early stop.
	visits := 0
	st.RangeScan(0, 19, func(k, v int64) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("early-stop scan visited %d, want 3", visits)
	}
}

func TestStoreBatchOps(t *testing.T) {
	st := testStore(t, 4, LazyLayeredSG)
	keys := []int64{1, 2, 3, 2}
	vals := []int64{10, 20, 30, 21}
	n, err := st.InsertBatch(keys, vals)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if n != 3 { // duplicate key 2 skipped
		t.Fatalf("InsertBatch inserted %d, want 3", n)
	}
	if _, err := st.InsertBatch([]int64{1}, []int64{1, 2}); err == nil {
		t.Fatal("InsertBatch length mismatch did not error")
	}
	got, found := st.GetBatch([]int64{1, 2, 3, 4})
	want := []int64{10, 20, 30, 0}
	wantFound := []bool{true, true, true, false}
	for i := range got {
		if got[i] != want[i] || found[i] != wantFound[i] {
			t.Fatalf("GetBatch[%d] = %d,%v; want %d,%v", i, got[i], found[i], want[i], wantFound[i])
		}
	}
}

func TestStoreLeaseSession(t *testing.T) {
	st := testStore(t, 4, LayeredSSG)
	l := st.Acquire()
	h := l.Handle()
	if h.Thread() != l.Stripe() {
		t.Fatalf("lease stripe %d != handle thread %d", l.Stripe(), h.Thread())
	}
	h.Insert(7, 70)
	l.Release()
	if v, ok := st.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) after leased insert = %d,%v", v, ok)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Release did not panic")
			}
		}()
		l.Release()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Handle after Release did not panic")
			}
		}()
		l.Handle()
	}()

	st.Do(func(h *Handle[int64, int64]) {
		h.Insert(8, 80)
		h.Insert(9, 90)
	})
	if !st.Contains(8) || !st.Contains(9) {
		t.Fatal("Do session inserts not visible")
	}

	s := st.LeaseStats()
	if s.Acquires == 0 {
		t.Fatal("LeaseStats recorded no acquisitions")
	}
	if s.Hits+s.Migrations+s.Blocks != s.Acquires {
		t.Fatalf("lease partition %d+%d+%d != %d", s.Hits, s.Migrations, s.Blocks, s.Acquires)
	}
}

// TestStoreConcurrentGoroutines is the facade's acceptance test: 4× more
// goroutines than pinned threads hammer a single Store with mixed single,
// batch, and session operations, then the surviving contents are verified
// exactly. Run it under -race: the leasing layer is what makes the confined
// handles safe to share.
func TestStoreConcurrentGoroutines(t *testing.T) {
	const (
		threads    = 4
		goroutines = 4 * threads
		perG       = 200
		span       = int64(10_000)
	)
	st := testStore(t, threads, LazyLayeredSG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * span
			rng := rand.New(rand.NewSource(int64(g) + 1))

			// Insert the first half one at a time, interleaved with reads of
			// the whole key space (cross-stripe traffic).
			for i := int64(0); i < perG/2; i++ {
				if !st.Insert(base+i, base+i) {
					t.Errorf("goroutine %d: insert %d failed", g, base+i)
				}
				st.Contains(rng.Int63n(int64(goroutines) * span))
			}
			// Insert the second half as one batch under a single lease.
			keys := make([]int64, 0, perG/2)
			vals := make([]int64, 0, perG/2)
			for i := int64(perG / 2); i < perG; i++ {
				keys = append(keys, base+i)
				vals = append(vals, base+i)
			}
			if n, err := st.InsertBatch(keys, vals); err != nil || n != len(keys) {
				t.Errorf("goroutine %d: InsertBatch = %d,%v; want %d,nil", g, n, err, len(keys))
			}
			// Verify own keys through a batch get.
			if _, found := st.GetBatch(keys); found[0] != true {
				t.Errorf("goroutine %d: batch key missing after insert", g)
			}
			// Remove every third key inside one session.
			st.Do(func(h *Handle[int64, int64]) {
				for i := int64(0); i < perG; i += 3 {
					if !h.Remove(base + i) {
						t.Errorf("goroutine %d: remove %d failed", g, base+i)
					}
				}
			})
		}(g)
	}
	wg.Wait()

	// Exact final contents: every goroutine's keys survive iff i%3 != 0.
	for g := 0; g < goroutines; g++ {
		base := int64(g) * span
		for i := int64(0); i < perG; i++ {
			v, ok := st.Get(base + i)
			if want := i%3 != 0; ok != want {
				t.Fatalf("key %d present=%v, want %v", base+i, ok, want)
			}
			if ok && v != base+i {
				t.Fatalf("key %d has value %d", base+i, v)
			}
		}
	}
	wantLen := goroutines * (perG - (perG+2)/3)
	if got := st.Map().Len(); got != wantLen {
		t.Fatalf("Len = %d, want %d", got, wantLen)
	}

	s := st.LeaseStats()
	if s.Acquires == 0 {
		t.Fatal("no leases recorded")
	}
	if len(s.PerStripe) != threads {
		t.Fatalf("PerStripe has %d entries, want %d", len(s.PerStripe), threads)
	}
	t.Logf("lease stats: %d acquires, hit rate %.2f, %d migrations, %d blocks",
		s.Acquires, s.HitRate, s.Migrations, s.Blocks)
}

// TestStoreSingleStripe exercises the degenerate one-thread machine: every
// goroutine contends for the same stripe, so the blocking path must be
// correct (no lost wakeups, no double leases).
func TestStoreSingleStripe(t *testing.T) {
	st := testStore(t, 1, LayeredSG)
	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := int64(g*perG + i)
				st.Insert(k, k)
			}
		}(g)
	}
	wg.Wait()
	if got := st.Map().Len(); got != goroutines*perG {
		t.Fatalf("Len = %d, want %d", got, goroutines*perG)
	}
}
