// Benchmarks for the Store facade: the cost of handle leasing relative to
// raw confined handles, on the paper's MC-WH workload (the Fig. 3 setting).
// The sub-benchmark pair makes the overhead ratio directly comparable:
//
//	go test -bench=StoreOverhead -benchtime=3x
//
// See EXPERIMENTS.md ("Store facade overhead") for a recorded run.
package layeredsg

import (
	"math/rand/v2"
	"sync"
	"testing"

	"layeredsg/internal/core"
	"layeredsg/internal/experiments"
	"layeredsg/internal/sbench"
)

// benchStoreTrial runs MC-WH trials of lazy_layered_sg and reports ops/ms,
// either through raw confined handles or through the Store facade. Both
// modes run one worker per machine thread so the ratio isolates pure facade
// overhead (lease acquisition + release per operation); oversubscription is
// exercised separately by the goroutines sub-benchmark.
func benchStoreTrial(b *testing.B, viaStore bool, goroutines int) {
	machine := benchMachine(b, benchThreads)
	w := benchWorkload(experiments.MC, experiments.WH)
	w.Goroutines = goroutines
	var opsPerMs float64
	for i := 0; i < b.N; i++ {
		a, err := NewAdapter("lazy_layered_sg", machine, AdapterOptions{
			Seed:     int64(i),
			ViaStore: viaStore,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sbench.Trial(machine, a, w)
		a.Close()
		if err != nil {
			b.Fatal(err)
		}
		opsPerMs += res.OpsPerMs
	}
	b.ReportMetric(opsPerMs/float64(b.N), "ops/ms")
}

// BenchmarkStoreOverhead compares leased (Store) against confined (raw
// Handle) throughput on MC-WH. The acceptance bar is the leased facade
// staying within 2× of raw handles.
func BenchmarkStoreOverhead(b *testing.B) {
	b.Run("handle", func(b *testing.B) { benchStoreTrial(b, false, 0) })
	b.Run("store", func(b *testing.B) { benchStoreTrial(b, true, 0) })
	// 4× oversubscription: the facade's reason to exist — confined handles
	// cannot run this shape at all.
	b.Run("store-4x-goroutines", func(b *testing.B) { benchStoreTrial(b, true, 4*benchThreads) })
}

// BenchmarkStoreMicro measures the facade's per-operation cost without the
// trial harness: single-goroutine Get/Insert through the Store (lease per
// op), a leased session (lease amortized), and the raw handle baseline.
func BenchmarkStoreMicro(b *testing.B) {
	const keySpace = 1 << 14
	build := func(b *testing.B) *Store[int64, int64] {
		b.Helper()
		st, err := NewStore[int64, int64](Config{Machine: benchMachine(b, benchThreads), Kind: LazyLayeredSG})
		if err != nil {
			b.Fatal(err)
		}
		for k := int64(0); k < keySpace; k += 4 {
			st.Insert(k, k)
		}
		return st
	}
	b.Run("store-get", func(b *testing.B) {
		st := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Get(int64(i) % keySpace)
		}
	})
	b.Run("session-get", func(b *testing.B) {
		st := build(b)
		b.ResetTimer()
		st.Do(func(h *Handle[int64, int64]) {
			for i := 0; i < b.N; i++ {
				h.Get(int64(i) % keySpace)
			}
		})
	})
	b.Run("handle-get", func(b *testing.B) {
		st := build(b)
		h := st.Map().Handle(0) // baseline: bypass leasing entirely
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Get(int64(i) % keySpace)
		}
	})
	b.Run("store-get-parallel", func(b *testing.B) {
		st := build(b)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := int64(0)
			for pb.Next() {
				st.Get(i % keySpace)
				i++
			}
		})
	})
}

// BenchmarkTraceOverhead isolates the observability layer's per-operation
// cost on the leased Get path. A tracer is attached in every sub-benchmark
// (the shipping configuration); what varies is the package switch:
//
//	none     — no tracer attached at all (the PR-1 baseline shape)
//	disabled — tracer attached, obs.Enabled off (the always-on default)
//	enabled  — full tracing: event ring writes and metric folds (the Store
//	           applies no pprof labels)
//
// disabled vs. none is the cost the acceptance criterion bounds at < 5%.
// See EXPERIMENTS.md ("Tracing overhead") for a recorded run.
func BenchmarkTraceOverhead(b *testing.B) {
	const keySpace = 1 << 14
	build := func(b *testing.B, traced bool) *Store[int64, int64] {
		b.Helper()
		cfg := Config{Machine: benchMachine(b, benchThreads), Kind: LazyLayeredSG}
		if traced {
			tr := NewTracer(TracerConfig{Name: "bench_trace_overhead"})
			b.Cleanup(tr.Close)
			cfg.Tracer = tr
		}
		st, err := NewStore[int64, int64](cfg)
		if err != nil {
			b.Fatal(err)
		}
		for k := int64(0); k < keySpace; k += 4 {
			st.Insert(k, k)
		}
		return st
	}
	run := func(traced, enabled bool) func(b *testing.B) {
		return func(b *testing.B) {
			st := build(b, traced)
			SetObservability(enabled)
			defer SetObservability(false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Get(int64(i) % keySpace)
			}
		}
	}
	b.Run("none", run(false, false))
	b.Run("disabled", run(true, false))
	b.Run("enabled", run(true, true))
}

// BenchmarkReadersBeyondStripes prices the paper's read-only threads (p. 10)
// against the Store when readers outnumber stripes: 16 goroutines on a
// 2×4×1 machine (8 stripes) each Get a uniform key of [0, 2^20) from a store
// holding its 2^19 even keys, so half the reads miss. "store" reads through
// Store.Get, which leases a stripe per read; "reader" gives each goroutine
// its own ReaderHandle, which seeds a search from the jump indexes every
// handle published after the fill. The "dealt" fill spreads the keys over
// every stripe's local structure, as a load does; "stripe0" inserts them all
// through stripe 0, so the other stripes' local structures are empty.
//
//	go test -run '^$' -bench ReadersBeyondStripes -benchtime 2s
func BenchmarkReadersBeyondStripes(b *testing.B) {
	const (
		keySpace = 1 << 20
		readers  = 16
	)
	machine := persistMachine(b, 2, 4, 8)
	read := func(b *testing.B, get func(g int, key int64)) {
		b.ResetTimer()
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(g), 1))
				for i := g; i < b.N; i += readers {
					get(g, rng.Int64N(keySpace))
				}
			}(g)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	}
	for _, fill := range []string{"dealt", "stripe0"} {
		b.Run(fill, func(b *testing.B) {
			st, err := NewStore[int64, int64](Config{Machine: machine, Kind: LazyLayeredSG})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			m := st.Map()
			for i := int64(0); i < keySpace/2; i++ {
				t := int(i) % m.Threads()
				if fill == "stripe0" {
					t = 0
				}
				m.Handle(t).Insert(2*i, i)
			}
			for t := 0; t < m.Threads(); t++ {
				m.Handle(t).PublishJumpIndex()
			}
			rhs := make([]*core.ReaderHandle[int64, int64], readers)
			for g := range rhs {
				rhs[g] = m.ReaderHandle(g % m.Threads())
			}
			b.Run("store", func(b *testing.B) {
				read(b, func(_ int, key int64) { st.Get(key) })
			})
			b.Run("reader", func(b *testing.B) {
				read(b, func(g int, key int64) { rhs[g].Get(key) })
			})
			for _, rh := range rhs {
				rh.Close()
			}
		})
	}
}
