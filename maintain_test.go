package layeredsg

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/lincheck"
	"layeredsg/internal/schedtest"
	"layeredsg/internal/stats"
)

// TestTortureBackgroundMaintenance reruns the torture mix on the lazy
// variants with deferred maintenance moved to the background helper pool:
// each thread owns a deterministic key range (verified exactly after Close)
// while churning a shared contended range, with a commission period small
// enough that retirement expires mid-run and helpers race searches for every
// deferral site.
func TestTortureBackgroundMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is slow")
	}
	threads := clampThreads(8)
	const (
		ownedKeys = 200
		sharedOps = 3000
	)
	for _, kind := range []Kind{LazyLayeredSG, LazyLayeredSSG} {
		t.Run(kind.String()+"/"+MaintBackground.String(), func(t *testing.T) {
			machine := testMachine(t, threads)
			m, err := New[int64, int64](Config{
				Machine:          machine,
				Kind:             kind,
				CommissionPeriod: 30 * time.Microsecond,
				Maintenance:      MaintBackground,
				Seed:             99,
			})
			if err != nil {
				t.Fatal(err)
			}
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
			m.Close()
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
			eng := m.Maintenance()
			if eng == nil {
				t.Fatal("lazy map with background policy has no engine")
			}
			st := eng.Stats()
			if st.Enqueues == 0 {
				t.Error("no maintenance work was ever enqueued")
			}
			if st.QueueDepth != 0 {
				t.Errorf("queue depth %d after Close, want 0", st.QueueDepth)
			}
		})
	}
}

// TestHelperVsInlineFinishInsertRace aims squarely at the finish-insert
// claim arbitration: each thread inserts into its own range — every insert
// enqueues deferred upper-level linking — and immediately re-reads earlier
// keys from its local structure, so the inline getStart claim races the
// helper's claim for the same nodes, continuously, under -race.
func TestHelperVsInlineFinishInsertRace(t *testing.T) {
	threads := clampThreads(8)
	const keysPerThread = 400
	t.Run(MaintBackground.String(), func(t *testing.T) {
		machine := testMachine(t, threads)
		m, err := New[int64, int64](Config{
			Machine:          machine,
			Kind:             LazyLayeredSG,
			CommissionPeriod: 50 * time.Microsecond,
			Maintenance:      MaintBackground,
			Seed:             7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := m.Handle(th)
				base := int64(th) * keysPerThread
				for k := int64(0); k < keysPerThread; k++ {
					if !h.Insert(base+k, k) {
						t.Errorf("thread %d: Insert(%d) failed", th, base+k)
						return
					}
					// Re-read a recent key: getStart walks the local
					// structure and claims unfinished nodes inline while
					// the helper drains the same enqueued items.
					if probe := base + k/2; !h.Contains(probe) {
						t.Errorf("thread %d: lost key %d", th, probe)
						return
					}
				}
			}(th)
		}
		wg.Wait()
		m.Close()
		if t.Failed() {
			return
		}
		if got, want := m.Len(), threads*keysPerThread; got != want {
			t.Fatalf("Len() = %d after drain, want %d", got, want)
		}
		if err := m.SharedStructure().Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCloseDuringDrain closes the map the instant the workload stops, while
// the helper queues still hold a retire backlog inside its commission period:
// Close's final drain must force-process or release every item, leaving the
// structure valid with nothing queued.
func TestCloseDuringDrain(t *testing.T) {
	threads := clampThreads(4)
	t.Run(MaintBackground.String(), func(t *testing.T) {
		machine := testMachine(t, threads)
		m, err := New[int64, int64](Config{
			Machine:          machine,
			Kind:             LazyLayeredSG,
			CommissionPeriod: 50 * time.Millisecond, // backlog stays in commission
			Maintenance:      MaintBackground,
			Seed:             3,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := m.Handle(th)
				rng := rand.New(rand.NewSource(int64(th)))
				for i := 0; i < 2000; i++ {
					key := rng.Int63n(256)
					if rng.Intn(2) == 0 {
						h.Insert(key, key)
					} else {
						h.Remove(key)
					}
				}
			}(th)
		}
		wg.Wait()
		m.Close() // queues hot: finish items plus in-commission retires
		if err := m.SharedStructure().Validate(); err != nil {
			t.Fatal(err)
		}
		if d := m.Maintenance().QueueDepth(); d != 0 {
			t.Fatalf("queue depth %d after Close, want 0", d)
		}
		// The map's logical contents survive Close (only background
		// helpers stop); confined handles remain usable.
		h := m.Handle(0)
		for k := int64(0); k < 256; k++ {
			h.Contains(k)
		}
	})
}

// TestStoreCloseLifecycle exercises the Store facade's Close contract with
// background maintenance underneath: Close waits for outstanding leases,
// double-Close is a no-op, and any operation after Close panics.
func TestStoreCloseLifecycle(t *testing.T) {
	machine := testMachine(t, 4)
	st, err := NewStore[int64, int64](Config{
		Machine:          machine,
		Kind:             LazyLayeredSG,
		CommissionPeriod: 50 * time.Microsecond,
		Maintenance:      MaintBackground,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				key := rng.Int63n(128)
				switch rng.Intn(3) {
				case 0:
					st.Insert(key, key)
				case 1:
					st.Remove(key)
				default:
					st.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()

	// Close must block while a lease is outstanding.
	lease := st.Acquire()
	var closeDone atomic.Bool
	closeStarted := make(chan struct{})
	go func() {
		close(closeStarted)
		st.Close()
		closeDone.Store(true)
	}()
	<-closeStarted
	time.Sleep(20 * time.Millisecond)
	if closeDone.Load() {
		t.Fatal("Close completed while a lease was outstanding")
	}
	lease.Release()
	for i := 0; !closeDone.Load(); i++ {
		if i > 1000 {
			t.Fatal("Close did not complete after the lease was released")
		}
		time.Sleep(time.Millisecond)
	}

	// Idempotent: a second Close returns immediately.
	st.Close()

	// Post-Close operations panic with the documented message.
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s after Close did not panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, "closed Store") {
				t.Fatalf("%s after Close panicked with %v, want closed-Store message", name, r)
			}
		}()
		fn()
	}
	mustPanic("Insert", func() { st.Insert(1, 1) })
	mustPanic("Get", func() { st.Get(1) })
	mustPanic("Do", func() { st.Do(func(h *Handle[int64, int64]) {}) })
	mustPanic("Acquire", func() { st.Acquire() })
}

// TestScheduledLinearizabilityBackgroundMaint replays seeded deterministic
// interleavings against the lazy variant with background maintenance. Helper
// recorders carry no access sink, so helpers run freely while the registered
// workers are stepped at every shared access — the
// schedule explores inline-protocol interleavings while real helpers claim,
// retire, and relink concurrently.
func TestScheduledLinearizabilityBackgroundMaint(t *testing.T) {
	threads := clampThreads(3)
	const (
		ops      = 5
		keySpace = 2
		seeds    = 60
	)
	t.Run(MaintBackground.String(), func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			runScheduledMaint(t, seed, threads, ops, keySpace)
		}
	})
}

func runScheduledMaint(t *testing.T, seed int64, threads, ops int, keySpace int64) {
	t.Helper()
	machine := testMachine(t, threads)
	stepper := schedtest.NewStepper(seed)
	defer stepper.Stop()
	rec := stats.NewRecorder(machine, stepper)
	a, err := NewAdapter("lazy_layered_sg", machine, AdapterOptions{
		KeySpace:         keySpace,
		Recorder:         rec,
		CommissionPeriod: time.Nanosecond, // retire eagerly: widest race surface
		Maintenance:      MaintBackground,
		Seed:             seed,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	defer a.Close()
	h := lincheck.NewHistory(threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		stepper.Register(th)
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			defer stepper.Done(th)
			handle := a.Handle(th)
			recTh := h.Recorder(th)
			rng := rand.New(rand.NewSource(seed*1000 + int64(th)))
			for i := 0; i < ops; i++ {
				key := rng.Int63n(keySpace)
				switch rng.Intn(3) {
				case 0:
					recTh.Record(lincheck.Insert, key, func() bool {
						return handle.Insert(key, key)
					})
				case 1:
					recTh.Record(lincheck.Remove, key, func() bool {
						return handle.Remove(key)
					})
				default:
					recTh.Record(lincheck.Contains, key, func() bool {
						return handle.Contains(key)
					})
				}
			}
		}(th)
	}
	wg.Wait()
	history := h.Ops()
	res := lincheck.Check(history)
	if !res.Linearizable {
		for _, op := range history {
			t.Logf("  %v", op)
		}
		t.Fatalf("seed %d: schedule not linearizable", seed)
	}
}
