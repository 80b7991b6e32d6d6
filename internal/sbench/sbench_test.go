package sbench

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"layeredsg/internal/numa"
)

func machine(t *testing.T, threads int) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// mapAdapter is a reference adapter over a locked Go map, good enough to
// validate the harness itself.
type mapAdapter struct {
	mu   sync.Mutex
	data map[int64]int64
}

func newMapAdapter() *mapAdapter { return &mapAdapter{data: make(map[int64]int64)} }

func (a *mapAdapter) Name() string { return "refmap" }
func (a *mapAdapter) Close()       {}
func (a *mapAdapter) Handle(int) OpHandle {
	return (*mapHandle)(a)
}

type mapHandle mapAdapter

func (h *mapHandle) Insert(k, v int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.data[k]; ok {
		return false
	}
	h.data[k] = v
	return true
}

func (h *mapHandle) Remove(k int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.data[k]; !ok {
		return false
	}
	delete(h.data, k)
	return true
}

func (h *mapHandle) Contains(k int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.data[k]
	return ok
}

func wl() Workload {
	return Workload{
		KeySpace:        1 << 10,
		UpdateRatio:     0.5,
		Duration:        30 * time.Millisecond,
		PreloadFraction: 0.2,
		Seed:            1,
	}
}

func TestValidate(t *testing.T) {
	good := wl()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	for name, mut := range map[string]func(*Workload){
		"keyspace": func(w *Workload) { w.KeySpace = 0 },
		"ratio":    func(w *Workload) { w.UpdateRatio = 1.5 },
		"duration": func(w *Workload) { w.Duration = 0 },
		"preload":  func(w *Workload) { w.PreloadFraction = -0.1 },
		"skew":     func(w *Workload) { w.Skew = 1.5 },
	} {
		w := wl()
		mut(&w)
		if err := w.Validate(); err == nil {
			t.Fatalf("%s: invalid workload accepted", name)
		}
	}
}

func TestPreloadFillsToTarget(t *testing.T) {
	m := machine(t, 4)
	a := newMapAdapter()
	w := wl()
	if err := Preload(m, a, w); err != nil {
		t.Fatal(err)
	}
	want := int(w.PreloadFraction * float64(w.KeySpace))
	if len(a.data) != want {
		t.Fatalf("preloaded %d want %d", len(a.data), want)
	}
}

func TestRunProducesOpsAndEffectiveUpdates(t *testing.T) {
	m := machine(t, 4)
	a := newMapAdapter()
	res, err := Trial(m, a, wl())
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "refmap" || res.Threads != 4 {
		t.Fatalf("metadata wrong: %+v", res)
	}
	if res.TotalOps == 0 || res.OpsPerMs <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	// -f 1 semantics: effective updates should track the requested 50%
	// reasonably closely (insert/remove alternation makes most updates
	// succeed; allow slack for the randomized insert misses).
	if res.EffectiveUpdatePct < 25 || res.EffectiveUpdatePct > 55 {
		t.Fatalf("effective updates %.1f%% out of band", res.EffectiveUpdatePct)
	}
}

func TestAverageAggregates(t *testing.T) {
	m := machine(t, 2)
	builds := 0
	res, err := Average(m, func() (Adapter, error) {
		builds++
		return newMapAdapter(), nil
	}, wl(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 3 {
		t.Fatalf("built %d adapters want 3", builds)
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops aggregated")
	}
	if _, err := Average(m, nil, wl(), 0); err == nil {
		t.Fatal("runs=0 accepted")
	}
}

// spinAdapter's Contains busy-waits for its delay; inserts and removes are
// free, so a read-only trial's latency samples all sit at the delay.
type spinAdapter struct{ delay time.Duration }

func (a *spinAdapter) Name() string             { return "spin" }
func (a *spinAdapter) Close()                   {}
func (a *spinAdapter) Handle(int) OpHandle      { return a }
func (a *spinAdapter) Insert(int64, int64) bool { return true }
func (a *spinAdapter) Remove(int64) bool        { return true }
func (a *spinAdapter) Contains(int64) bool {
	for start := time.Now(); time.Since(start) < a.delay; {
	}
	return true
}

// TestAverageLatencyQuantiles: Average reports the quantiles of every run's
// samples together. Of two runs whose operations take 100 µs and 1 ms, the
// first contributes about ten times the samples, so the median sits near
// 100 µs and p99 near 1 ms; averaging the runs' quantiles reads both near
// 200 µs, which no operation took.
func TestAverageLatencyQuantiles(t *testing.T) {
	delays := []time.Duration{100 * time.Microsecond, time.Millisecond}
	builds := 0
	w := Workload{
		KeySpace:      1 << 10,
		Duration:      100 * time.Millisecond,
		Seed:          1,
		LatencySample: 1,
	}
	res, err := Average(machine(t, 1), func() (Adapter, error) {
		a := &spinAdapter{delay: delays[builds]}
		builds++
		return a, nil
	}, w, len(delays))
	if err != nil {
		t.Fatal(err)
	}
	lat := res.Latency
	if lat.P50Ns >= int64(150*time.Microsecond) || lat.P99Ns <= int64(700*time.Microsecond) {
		t.Fatalf("p50 %v, p99 %v over %d samples; want p50 < 150µs and p99 > 700µs",
			time.Duration(lat.P50Ns), time.Duration(lat.P99Ns), lat.Count)
	}
}

func TestReadHeavyMix(t *testing.T) {
	m := machine(t, 2)
	a := newMapAdapter()
	w := wl()
	w.UpdateRatio = 0.2
	res, err := Trial(m, a, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveUpdatePct > 25 {
		t.Fatalf("read-heavy run had %.1f%% effective updates", res.EffectiveUpdatePct)
	}
}

func TestZipfDistribution(t *testing.T) {
	w := wl()
	w.Distribution = Zipf
	if err := w.Validate(); err != nil {
		t.Fatalf("zipf default rejected: %v", err)
	}
	w.ZipfS = 0.5
	if err := w.Validate(); err == nil {
		t.Fatal("ZipfS <= 1 accepted")
	}
	w.ZipfS = 1.5
	// The generator must skew: key 0 should dominate.
	gen := w.keyGen(rand.New(rand.NewSource(1)))
	counts := make(map[int64]int)
	for i := 0; i < 20000; i++ {
		counts[gen()]++
	}
	if counts[0] < 5000 {
		t.Fatalf("zipf not skewed: key 0 drawn %d times", counts[0])
	}
	uni := wl().keyGen(rand.New(rand.NewSource(1)))
	uniCounts := make(map[int64]int)
	for i := 0; i < 20000; i++ {
		uniCounts[uni()]++
	}
	if uniCounts[0] > 200 {
		t.Fatalf("uniform generator skewed: key 0 drawn %d times", uniCounts[0])
	}
}

func TestHotspotDistribution(t *testing.T) {
	w := wl()
	w.Distribution = Hotspot
	if err := w.Validate(); err != nil {
		t.Fatalf("hotspot default rejected: %v", err)
	}
	// Default Skew 0 means 90% of draws land in the hot tenth.
	gen := w.keyGen(rand.New(rand.NewSource(1)))
	hot := w.KeySpace / 10
	if hot < 1 {
		hot = 1
	}
	inHot := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		k := gen()
		if k < 0 || k >= w.KeySpace {
			t.Fatalf("key %d outside [0,%d)", k, w.KeySpace)
		}
		if k < hot {
			inHot++
		}
	}
	frac := float64(inHot) / draws
	if frac < 0.85 || frac > 0.97 {
		t.Fatalf("hot fraction %.3f, want ~0.9+uniform spill", frac)
	}
	// An explicit Skew of 0.5 halves the hot traffic.
	w.Skew = 0.5
	gen = w.keyGen(rand.New(rand.NewSource(1)))
	inHot = 0
	for i := 0; i < draws; i++ {
		if gen() < hot {
			inHot++
		}
	}
	frac = float64(inHot) / draws
	if frac < 0.5 || frac > 0.62 {
		t.Fatalf("hot fraction %.3f with Skew 0.5, want ~0.55", frac)
	}
}

func TestZipfTrial(t *testing.T) {
	m := machine(t, 4)
	a := newMapAdapter()
	w := wl()
	w.Distribution = Zipf
	res, err := Trial(m, a, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops under zipf workload")
	}
}

// oversubAdapter wraps mapAdapter with the Oversubscribable marker: its
// handles are mutex-protected, so any worker index is safe.
type oversubAdapter struct{ *mapAdapter }

func (a *oversubAdapter) Oversubscribable() bool { return true }

func TestOversubscription(t *testing.T) {
	m := machine(t, 2)
	w := wl()
	w.Goroutines = 8 // 4× the machine's threads

	// A confined adapter must reject goroutines > threads.
	if _, err := Trial(m, newMapAdapter(), w); err == nil {
		t.Fatal("confined adapter accepted oversubscription")
	}

	// An oversubscribable adapter runs all 8 workers.
	res, err := Trial(m, &oversubAdapter{newMapAdapter()}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goroutines != 8 || res.Threads != 2 {
		t.Fatalf("goroutines/threads = %d/%d, want 8/2", res.Goroutines, res.Threads)
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops under oversubscription")
	}

	// Goroutines below the thread count just runs fewer workers.
	w.Goroutines = 1
	res, err = Trial(m, newMapAdapter(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Goroutines != 1 {
		t.Fatalf("goroutines = %d, want 1", res.Goroutines)
	}

	// Negative worker counts are rejected by Validate.
	w.Goroutines = -1
	if err := w.Validate(); err == nil {
		t.Fatal("negative Goroutines accepted")
	}
}
