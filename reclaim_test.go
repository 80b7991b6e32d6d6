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

// TestReclaimDriftBounded drives a default Store (LazyLayeredSG on a 2×4×1
// machine, every other field zero but a dormant tracer, which only exposes
// the index gauge) from one goroutine while a 4,096-key window slides over
// 400,000 distinct keys. The inline reclamation pass must keep arena live
// slots, index entries and the local structures' entries, summed over every
// stripe, within reach of the live keys: without it they track the distinct
// keys. Closing the store afterwards must be quick, since Close does no
// reclamation work.
func TestReclaimDriftBounded(t *testing.T) {
	topo, err := NewTopology(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := Pin(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewTracer(TracerConfig{Name: "reclaim-drift"})
	defer tracer.Close()
	st, err := NewStore[int64, int64](Config{Machine: machine, Kind: LazyLayeredSG, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	const (
		window   = 4096
		distinct = 400_000
	)
	m := st.Map()
	bound := func(live int) int { return 3*live + 4096 + 1024*st.Stripes() }
	for k := int64(0); k < distinct; k++ {
		if !st.Insert(k, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
		if k >= window && !st.Remove(k-window) {
			t.Fatalf("Remove(%d) failed", k-window)
		}
		if n := k + 1; n != 100_000 && n != 200_000 && n != distinct {
			continue
		}
		slots := int(m.SharedStructure().ArenaStats().SlotsLive())
		entries := int(tracer.Snapshot().Index.Entries)
		trees := 0
		for i := 0; i < m.Threads(); i++ {
			trees += m.Handle(i).LocalTreeLen()
		}
		t.Logf("%d distinct keys: %d slots, %d index entries, %d local-structure entries (bound %d), %+v",
			k+1, slots, entries, trees, bound(window), tracer.Snapshot().Reclaim)
		for _, g := range []struct {
			name string
			n    int
		}{{"arena live slots", slots}, {"index entries", entries}, {"local-structure entries", trees}} {
			if g.n > bound(window) {
				t.Errorf("%d distinct keys: %s = %d, want <= %d", k+1, g.name, g.n, bound(window))
			}
		}
	}
	start := time.Now()
	st.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Store.Close took %v, want < 100ms", d)
	}
}

// TestReclaimHoldsUnderOpenSnapshot: while a snapshot is open, no node
// removed after it can be retired and no retired node freed, so every
// triggered pass is fruitless. Each fruitless pass holds the trigger until
// occupied slots grow by a quarter (and by at least one check interval per
// stripe), so churning 100 k fresh keys runs about a dozen passes rather
// than one per check interval, some two hundred. Once the snapshot closes,
// the passes resume and bring the slots back within the trigger's reach.
func TestReclaimHoldsUnderOpenSnapshot(t *testing.T) {
	tracer := NewTracer(TracerConfig{Name: "reclaim-hold"})
	defer tracer.Close()
	m, err := New[int64, int64](Config{Machine: testMachine(t, 4), Kind: LazyLayeredSG, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := m.Handle(0)
	const window = 1024
	churn := func(from, to int64) {
		t.Helper()
		for k := from; k < to; k++ {
			if !h.Insert(k, k) {
				t.Fatalf("Insert(%d) failed", k)
			}
			if k >= window && !h.Remove(k-window) {
				t.Fatalf("Remove(%d) failed", k-window)
			}
		}
	}
	churn(0, window)
	want := map[int64]int64{}
	for k := int64(0); k < window; k++ {
		want[k] = k
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	before := tracer.Snapshot().Reclaim
	churn(window, window+n)
	during := tracer.Snapshot().Reclaim
	t.Logf("under the snapshot: %d passes, %+v", during.Passes-before.Passes, during)
	if during.Retired != before.Retired || during.Freed != before.Freed {
		t.Fatalf("passes retired or freed nodes under a snapshot older than every removal: %+v", during)
	}
	if p := during.Passes - before.Passes; p == 0 || p > 20 {
		t.Errorf("%d passes while churning %d keys under an open snapshot, want 1 to 20", p, n)
	}
	wantSnapshot(t, snap, want)
	snap.Close()

	churn(window+n, window+n+50_000)
	slots := int(m.SharedStructure().ArenaStats().SlotsLive())
	t.Logf("after the snapshot closed: %d slots, %+v", slots, tracer.Snapshot().Reclaim)
	if bound := 3*window + 4096 + 1024*m.Threads(); slots > bound {
		t.Errorf("%d slots after the snapshot closed, want <= %d", slots, bound)
	}
}

// TestStoreCloseLifecycle exercises the Store facade's Close contract:
// Close waits for outstanding leases, double-Close is a no-op, and any
// operation after Close panics.
func TestStoreCloseLifecycle(t *testing.T) {
	machine := testMachine(t, 4)
	st, err := NewStore[int64, int64](Config{
		Machine:          machine,
		Kind:             LazyLayeredSG,
		CommissionPeriod: 50 * time.Microsecond,
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
// interleavings against the lazy variant with reclamation passes forced
// between steps: a stepped worker runs a pass after about half of its
// operations, while the stepper holds every other worker parked, and a
// background goroutine outside the schedule runs passes freely besides. A
// pass records no instrumentation, so it is never stepped itself; the
// commission period of one nanosecond lets searches retire eagerly, and the
// passes relink, arm and free under the workers' feet.
func TestScheduledLinearizabilityBackgroundMaint(t *testing.T) {
	threads := clampThreads(3)
	const (
		ops      = 5
		keySpace = 2
		seeds    = 60
	)
	t.Run("background", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			runScheduledReclaim(t, seed, threads, ops, keySpace)
		}
	})
}

// TestTortureBackgroundMaintenance runs the torture mix on the lazy
// variants while a background goroutine forces reclamation passes: each
// thread owns a deterministic key range (verified exactly at the end) while
// churning a shared contended range, with a commission period small enough
// that searches retire mid-run, so passes relink, arm and free under every
// operation.
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
		t.Run(kind.String()+"/background", func(t *testing.T) {
			m, err := New[int64, int64](Config{
				Machine:          testMachine(t, threads),
				Kind:             kind,
				CommissionPeriod: 30 * time.Microsecond,
				Seed:             99,
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
						if k%2 == 1 && !h.Remove(base+k) {
							t.Errorf("thread %d: owned remove %d failed", th, base+k)
							return
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
			h := m.Handle(0)
			for th := 0; th < threads; th++ {
				base := int64(1<<20) + int64(th)*10000
				for k := int64(0); k < ownedKeys; k++ {
					if got, want := h.Contains(base+k), k%2 == 0; got != want {
						t.Fatalf("Contains(%d) = %v want %v", base+k, got, want)
					}
				}
			}
			if err := m.SharedStructure().Validate(); err != nil {
				t.Fatal(err)
			}
			if st := m.Reclaim(); st.Passes < 2 {
				t.Fatalf("reclaim stats %+v: the background goroutine ran no pass", st)
			}
		})
	}
}

func runScheduledReclaim(t *testing.T, seed int64, threads, ops int, keySpace int64) {
	t.Helper()
	machine := testMachine(t, threads)
	stepper := schedtest.NewStepper(seed)
	defer stepper.Stop()
	rec := stats.NewRecorder(machine, stepper)
	m, err := New[int64, int64](Config{
		Machine:          machine,
		Kind:             LazyLayeredSG,
		Recorder:         rec,
		CommissionPeriod: time.Nanosecond, // retire eagerly: widest race surface
		Seed:             seed,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
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
	h := lincheck.NewHistory(threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		stepper.Register(th)
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			defer stepper.Done(th)
			handle := m.Handle(th)
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
				if rng.Intn(2) == 0 {
					m.Reclaim()
				}
			}
		}(th)
	}
	wg.Wait()
	stop.Store(true)
	<-passes
	history := h.Ops()
	if res := lincheck.Check(history); !res.Linearizable {
		for _, op := range history {
			t.Logf("  %v", op)
		}
		t.Fatalf("seed %d: schedule not linearizable", seed)
	}
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
