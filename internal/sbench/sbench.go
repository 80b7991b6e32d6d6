// Package sbench reproduces the paper's measurement methodology, which
// "follows exactly the testing procedure of Synchrobench with the flag -f 1":
//
//   - trials run a fixed duration and report total operations per
//     millisecond;
//   - a requested fraction of operations are updates, and only *successful*
//     inserts and removes count as effective updates; the -f 1 procedure
//     matches the effective ratio to the requested ratio by alternating — a
//     successful insert of key k schedules a removal of k as the thread's
//     next update, which (almost) always succeeds;
//   - keys are drawn uniformly at random from the key space with a
//     per-thread deterministic generator;
//   - structures are preloaded to a fraction of the key space before
//     measurement (20 % in the paper; 2.5 % for the low-contention runs),
//     round-robin across threads so first-touch ownership is spread like the
//     steady state's.
package sbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"layeredsg/internal/numa"
	"layeredsg/internal/obs"
	"layeredsg/internal/stats"
)

// OpHandle is one thread's view of a concurrent map under test. Handles are
// single-threaded; the harness gives each worker its own.
type OpHandle interface {
	Insert(key, value int64) bool
	Remove(key int64) bool
	Contains(key int64) bool
}

// Adapter wraps one concurrent map instance for benchmarking.
type Adapter interface {
	// Name is the algorithm label (the paper's names, e.g. "lazy_layered_sg").
	Name() string
	// Handle returns the per-thread handle for a logical thread.
	Handle(thread int) OpHandle
	// Close releases background resources (index maintenance goroutines).
	Close()
}

// Oversubscribable marks adapters whose Handle method accepts any worker
// index — not just pinned logical threads — and returns handles safe to use
// from arbitrary goroutines (e.g. the Store facade, which leases confined
// handles internally). Only such adapters may run workloads with more
// goroutines than machine threads.
type Oversubscribable interface {
	Oversubscribable() bool
}

// Workload describes one trial configuration.
type Workload struct {
	// KeySpace is the number of distinct keys (2^8 HC, 2^14 MC, 2^17 LC).
	KeySpace int64
	// UpdateRatio is the requested fraction of update operations
	// (0.5 write-heavy, 0.2 read-heavy).
	UpdateRatio float64
	// Duration is the measured interval per run.
	Duration time.Duration
	// PreloadFraction of the key space is inserted before measurement.
	PreloadFraction float64
	// Seed makes key streams deterministic.
	Seed int64
	// LockOSThread pins each worker goroutine to an OS thread for the run.
	// This is the closest Go offers to CPU pinning; the locality *accounting*
	// is independent of it (it uses the simulated placement map).
	LockOSThread bool
	// YieldEvery makes each worker call runtime.Gosched every N operations.
	// On machines with fewer cores than workers this is essential: without
	// it the Go scheduler runs each goroutine for a full preemption slice
	// (~10 ms of *sequential* operations), so the trial measures batched
	// near-sequential histories instead of interleaved concurrent ones. The
	// experiments package sets 1; 0 disables yielding.
	YieldEvery int
	// Distribution selects the key distribution. The paper's workloads are
	// uniform (the zero value); Zipf and Hotspot add skewed-access
	// extensions.
	Distribution Distribution
	// ZipfS is the Zipf skew exponent (> 1); 0 selects 1.2.
	ZipfS float64
	// Skew is the Hotspot distribution's hot fraction: the probability an
	// operation targets the hot set (the lowest tenth of the key space,
	// at least one key). 0 selects 0.9 — "90% of operations hit 10% of
	// keys". Ignored by other distributions.
	Skew float64
	// Goroutines overrides the worker count; 0 runs the paper's setting of
	// one worker per machine thread. A value above the thread count
	// oversubscribes the adapter — request-serving style — and requires the
	// adapter to implement Oversubscribable (confined per-thread handles
	// cannot be shared between workers).
	Goroutines int
	// LatencySample, when positive, wall-clock-times every Nth operation of
	// each worker into Result.Latency — cheap enough (two clock reads per
	// sample) to leave on at N ≥ 64 without moving throughput. 0 disables
	// latency measurement.
	LatencySample int
}

// Distribution selects how workers draw keys.
type Distribution int

const (
	// Uniform draws keys uniformly at random (the paper's setting).
	Uniform Distribution = iota
	// Zipf draws keys with Zipfian skew: a few keys receive most operations,
	// modelling the hot-key behaviour of real caches and stores.
	Zipf
	// Hotspot draws a Skew fraction of keys uniformly from the hot tenth of
	// the key space and the rest uniformly from the whole space — the
	// classic "90/10" cache benchmark shape, with a flat (rather than
	// power-law) hot set.
	Hotspot
)

// keyGen returns a per-thread key generator for the workload.
func (w Workload) keyGen(rng *rand.Rand) func() int64 {
	switch w.Distribution {
	case Zipf:
		s := w.ZipfS
		if s == 0 {
			s = 1.2
		}
		z := rand.NewZipf(rng, s, 1, uint64(w.KeySpace-1))
		return func() int64 { return int64(z.Uint64()) }
	case Hotspot:
		p := w.Skew
		if p == 0 {
			p = 0.9
		}
		hot := w.KeySpace / 10
		if hot < 1 {
			hot = 1
		}
		return func() int64 {
			if rng.Float64() < p {
				return rng.Int63n(hot)
			}
			return rng.Int63n(w.KeySpace)
		}
	default:
		return func() int64 { return rng.Int63n(w.KeySpace) }
	}
}

// Validate checks the workload for obvious misconfiguration.
func (w Workload) Validate() error {
	if w.KeySpace <= 0 {
		return fmt.Errorf("sbench: KeySpace must be positive, got %d", w.KeySpace)
	}
	if w.UpdateRatio < 0 || w.UpdateRatio > 1 {
		return fmt.Errorf("sbench: UpdateRatio must be in [0,1], got %f", w.UpdateRatio)
	}
	if w.Duration <= 0 {
		return fmt.Errorf("sbench: Duration must be positive, got %v", w.Duration)
	}
	if w.PreloadFraction < 0 || w.PreloadFraction > 1 {
		return fmt.Errorf("sbench: PreloadFraction must be in [0,1], got %f", w.PreloadFraction)
	}
	if w.Distribution == Zipf && w.ZipfS != 0 && w.ZipfS <= 1 {
		return fmt.Errorf("sbench: ZipfS must exceed 1, got %f", w.ZipfS)
	}
	if w.Skew < 0 || w.Skew > 1 {
		return fmt.Errorf("sbench: Skew must be in [0,1], got %f", w.Skew)
	}
	if w.Goroutines < 0 {
		return fmt.Errorf("sbench: Goroutines must be non-negative, got %d", w.Goroutines)
	}
	if w.LatencySample < 0 {
		return fmt.Errorf("sbench: LatencySample must be non-negative, got %d", w.LatencySample)
	}
	return nil
}

// Result is one trial's outcome.
type Result struct {
	Algorithm string
	Threads   int
	// Goroutines is the worker count actually run (= Threads unless the
	// workload oversubscribed).
	Goroutines         int
	TotalOps           uint64
	OpsPerMs           float64
	EffectiveUpdatePct float64
	Elapsed            time.Duration
	// Latency summarizes the sampled per-operation wall-clock latencies;
	// zero-valued unless Workload.LatencySample was set.
	Latency stats.HistogramSnapshot
}

// Preload inserts PreloadFraction·KeySpace distinct random keys, round-robin
// across the machine's threads so shared-node ownership is distributed.
func Preload(machine *numa.Machine, a Adapter, w Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	target := int64(w.PreloadFraction * float64(w.KeySpace))
	rng := rand.New(rand.NewSource(w.Seed ^ 0x5eed))
	threads := machine.Threads()
	turn := 0
	for inserted := int64(0); inserted < target; {
		k := rng.Int63n(w.KeySpace)
		if a.Handle(turn%threads).Insert(k, k) {
			inserted++
			turn++
		}
	}
	return nil
}

// Run executes one measured trial on an already-preloaded adapter: one
// worker goroutine per machine thread (or Workload.Goroutines workers, when
// set), each applying the -f 1 operation mix for the workload's duration.
func Run(machine *numa.Machine, a Adapter, w Workload) (Result, error) {
	var lat *stats.Histogram
	if w.LatencySample > 0 {
		lat = new(stats.Histogram)
	}
	return run(machine, a, w, lat)
}

// run is Run recording its latency samples into lat, which is nil exactly
// when the workload samples no latency. Result.Latency summarizes every
// sample lat holds, earlier runs' included.
func run(machine *numa.Machine, a Adapter, w Workload, lat *stats.Histogram) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	threads := machine.Threads()
	workers := threads
	if w.Goroutines > 0 {
		workers = w.Goroutines
	}
	if workers > threads {
		if o, ok := a.(Oversubscribable); !ok || !o.Oversubscribable() {
			return Result{}, fmt.Errorf("sbench: %d workers exceed %d machine threads, but adapter %q is not oversubscribable", workers, threads, a.Name())
		}
	}
	var (
		stop      atomic.Bool
		totalOps  atomic.Uint64
		effective atomic.Uint64
		wg        sync.WaitGroup
		startGate = make(chan struct{})
	)
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			if w.LockOSThread {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			if obs.Enabled.Load() {
				// Label workers so CPU profiles taken during observed trials
				// attribute samples per worker; a Store's leases leave the
				// labels alone.
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels("sbench_worker", strconv.Itoa(t))))
				defer pprof.SetGoroutineLabels(context.Background())
			}
			h := a.Handle(t)
			rng := rand.New(rand.NewSource(w.Seed + int64(t)*0x9E3779B9 + 7))
			nextKey := w.keyGen(rng)
			var (
				ops, eff   uint64
				hasPending bool
				pendingKey int64
			)
			<-startGate
			for !stop.Load() {
				var opStart time.Time
				sampled := lat != nil && ops%uint64(w.LatencySample) == 0
				if sampled {
					opStart = time.Now()
				}
				if rng.Float64() < w.UpdateRatio {
					// Synchrobench -f 1: alternate insert/remove of the same
					// key so effective updates track requested updates.
					if hasPending {
						if h.Remove(pendingKey) {
							eff++
						}
						hasPending = false
					} else {
						k := nextKey()
						if h.Insert(k, k) {
							eff++
							pendingKey = k
							hasPending = true
						}
					}
				} else {
					h.Contains(nextKey())
				}
				if sampled {
					lat.Record(int64(time.Since(opStart)))
				}
				ops++
				if w.YieldEvery > 0 && ops%uint64(w.YieldEvery) == 0 {
					runtime.Gosched()
				}
			}
			totalOps.Add(ops)
			effective.Add(eff)
		}(t)
	}
	start := time.Now()
	close(startGate)
	timer := time.NewTimer(w.Duration)
	<-timer.C
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	ops := totalOps.Load()
	res := Result{
		Algorithm:  a.Name(),
		Threads:    threads,
		Goroutines: workers,
		TotalOps:   ops,
		OpsPerMs:   float64(ops) / float64(elapsed.Milliseconds()),
		Elapsed:    elapsed,
	}
	if ops > 0 {
		res.EffectiveUpdatePct = 100 * float64(effective.Load()) / float64(ops)
	}
	if lat != nil {
		res.Latency = lat.Snapshot()
	}
	return res, nil
}

// Trial preloads a fresh adapter and runs one measured trial.
func Trial(machine *numa.Machine, a Adapter, w Workload) (Result, error) {
	if err := Preload(machine, a, w); err != nil {
		return Result{}, err
	}
	return Run(machine, a, w)
}

// Average runs `runs` independent trials, each on a freshly built adapter,
// and averages throughput — the paper averages 5 runs of 10 s each. Latency,
// when sampled, summarizes every run's samples in one histogram.
func Average(machine *numa.Machine, build func() (Adapter, error), w Workload, runs int) (Result, error) {
	if runs <= 0 {
		return Result{}, fmt.Errorf("sbench: runs must be positive, got %d", runs)
	}
	var sum Result
	var lat *stats.Histogram
	if w.LatencySample > 0 {
		lat = new(stats.Histogram)
	}
	for i := 0; i < runs; i++ {
		a, err := build()
		if err != nil {
			return Result{}, fmt.Errorf("build adapter (run %d): %w", i, err)
		}
		wi := w
		wi.Seed = w.Seed + int64(i)*104729
		err = Preload(machine, a, wi)
		var res Result
		if err == nil {
			res, err = run(machine, a, wi, lat)
		}
		a.Close()
		if err != nil {
			return Result{}, err
		}
		sum.Algorithm = res.Algorithm
		sum.Threads = res.Threads
		sum.Goroutines = res.Goroutines
		sum.TotalOps += res.TotalOps
		sum.OpsPerMs += res.OpsPerMs
		sum.EffectiveUpdatePct += res.EffectiveUpdatePct
		sum.Elapsed += res.Elapsed
	}
	sum.OpsPerMs /= float64(runs)
	sum.EffectiveUpdatePct /= float64(runs)
	if lat != nil {
		sum.Latency = lat.Snapshot()
	}
	return sum, nil
}
