// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each BenchmarkFig*/Table*
// iteration runs one Synchrobench-style trial and reports the figure's
// metric via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the full evaluation at test scale, and
//
//	go test -bench=Fig2 -benchtime=5x
//
// re-runs one figure with more repetitions. Paper-scale parameters (96
// threads, 10 s trials, 5 runs) are available through cmd/experiments; the
// benchmarks use reduced thread counts and durations so the suite completes
// quickly while preserving each comparison's *shape* (who wins and by
// roughly what factor) — see EXPERIMENTS.md for shape-vs-paper notes.
package layeredsg

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/cachesim"
	"layeredsg/internal/experiments"
	"layeredsg/internal/numa"
	"layeredsg/internal/sbench"
	"layeredsg/internal/stats"
)

const (
	benchThreads  = 16
	benchDuration = 100 * time.Millisecond
)

// benchMachine scales the paper machine down so `threads` workers span both
// sockets (socket-fill pinning on the full 2×24×2 box would leave any run
// below 49 threads entirely on socket 0, hiding every NUMA effect — in the
// paper, too, the curves only separate beyond one socket's worth of
// threads). cmd/experiments at 96 threads uses the full paper machine.
func benchMachine(b *testing.B, threads int) *numa.Machine {
	b.Helper()
	cores := threads / 4
	if cores < 1 {
		cores = 1
	}
	topo, err := numa.New(2, cores, 2)
	if err != nil {
		b.Fatal(err)
	}
	machine, err := numa.Pin(topo, threads)
	if err != nil {
		b.Fatal(err)
	}
	return machine
}

func benchWorkload(sc experiments.Scenario, load experiments.Load) sbench.Workload {
	return sbench.Workload{
		KeySpace:        sc.KeySpace,
		UpdateRatio:     load.UpdateRatio,
		Duration:        benchDuration,
		PreloadFraction: sc.PreloadFraction,
		Seed:            42,
		YieldEvery:      1,
	}
}

// benchThroughput is the engine behind the Fig. 2–4 and 11–13 benchmarks.
func benchThroughput(b *testing.B, sc experiments.Scenario, load experiments.Load) {
	machine := benchMachine(b, benchThreads)
	for _, algo := range experiments.ThroughputAlgos {
		b.Run(algo, func(b *testing.B) {
			var opsPerMs float64
			for i := 0; i < b.N; i++ {
				// Throughput trials run with the NUMA latency model attached
				// so remote accesses cost wall-clock time, as on the paper's
				// machine (see stats.LatencyModel).
				rec := stats.NewRecorder(machine, nil)
				rec.SetLatency(stats.DefaultLatencyModel())
				a, err := NewAdapter(algo, machine, AdapterOptions{KeySpace: sc.KeySpace, Recorder: rec, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sbench.Trial(machine, a, benchWorkload(sc, load))
				a.Close()
				if err != nil {
					b.Fatal(err)
				}
				opsPerMs += res.OpsPerMs
			}
			b.ReportMetric(opsPerMs/float64(b.N), "ops/ms")
		})
	}
}

// BenchmarkFig2_HC_WH regenerates Fig. 2: write-heavy throughput at high
// contention (2^8 keys).
func BenchmarkFig2_HC_WH(b *testing.B) { benchThroughput(b, experiments.HC, experiments.WH) }

// BenchmarkFig3_MC_WH regenerates Fig. 3: write-heavy, medium contention
// (2^14 keys).
func BenchmarkFig3_MC_WH(b *testing.B) { benchThroughput(b, experiments.MC, experiments.WH) }

// BenchmarkFig4_LC_WH regenerates Fig. 4: write-heavy, low contention
// (2^17 keys, 2.5 % preload).
func BenchmarkFig4_LC_WH(b *testing.B) { benchThroughput(b, experiments.LC, experiments.WH) }

// BenchmarkFig11_HC_RH regenerates Fig. 11: read-heavy, high contention.
func BenchmarkFig11_HC_RH(b *testing.B) { benchThroughput(b, experiments.HC, experiments.RH) }

// BenchmarkFig12_MC_RH regenerates Fig. 12: read-heavy, medium contention.
func BenchmarkFig12_MC_RH(b *testing.B) { benchThroughput(b, experiments.MC, experiments.RH) }

// BenchmarkFig13_LC_RH regenerates Fig. 13: read-heavy, low contention.
func BenchmarkFig13_LC_RH(b *testing.B) { benchThroughput(b, experiments.LC, experiments.RH) }

// instrumentedBench runs one recorded trial per iteration and lets report
// publish metrics from the recorder.
func instrumentedBench(b *testing.B, algo string, sc experiments.Scenario, load experiments.Load, sink stats.AccessSink, report func(*testing.B, *stats.Recorder)) {
	machine := benchMachine(b, benchThreads)
	for i := 0; i < b.N; i++ {
		rec := stats.NewRecorder(machine, sink)
		rec.SetLatency(stats.DefaultLatencyModel())
		a, err := NewAdapter(algo, machine, AdapterOptions{KeySpace: sc.KeySpace, Recorder: rec, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		_, err = sbench.Trial(machine, a, benchWorkload(sc, load))
		a.Close()
		if err != nil {
			b.Fatal(err)
		}
		report(b, rec)
	}
}

// BenchmarkFig5_NodesPerSearch regenerates Fig. 5: average shared nodes
// traversed per search, MC-WH.
func BenchmarkFig5_NodesPerSearch(b *testing.B) {
	for _, algo := range experiments.Fig5Algos {
		b.Run(algo, func(b *testing.B) {
			instrumentedBench(b, algo, experiments.MC, experiments.WH, nil,
				func(b *testing.B, rec *stats.Recorder) {
					b.ReportMetric(rec.Summary().NodesPerSearch, "nodes/search")
				})
		})
	}
}

// BenchmarkTable1_Instrumentation regenerates Table 1: local/remote reads
// and maintenance CAS per operation plus CAS success rate, HC-WH.
func BenchmarkTable1_Instrumentation(b *testing.B) {
	for _, algo := range experiments.Table1Algos {
		b.Run(algo, func(b *testing.B) {
			instrumentedBench(b, algo, experiments.HC, experiments.WH, nil,
				func(b *testing.B, rec *stats.Recorder) {
					s := rec.Summary()
					b.ReportMetric(s.LocalReadsPerOp, "localReads/op")
					b.ReportMetric(s.RemoteReadsPerOp, "remoteReads/op")
					b.ReportMetric(s.LocalCASPerOp, "localCAS/op")
					b.ReportMetric(s.RemoteCASPerOp, "remoteCAS/op")
					b.ReportMetric(s.CASSuccessRate, "CASsuccess")
				})
		})
	}
}

// BenchmarkFig6to9_CASLocality regenerates the essence of the CAS heatmaps
// (Figs. 6–9): the fraction of maintenance CASes that stay NUMA-local, and
// the per-pair traffic at the largest NUMA distance, MC-WH.
func BenchmarkFig6to9_CASLocality(b *testing.B) {
	for _, algo := range experiments.HeatmapAlgos {
		b.Run(algo, func(b *testing.B) {
			instrumentedBench(b, algo, experiments.MC, experiments.WH, nil,
				func(b *testing.B, rec *stats.Recorder) {
					s := rec.Summary()
					if den := s.LocalCASPerOp + s.RemoteCASPerOp; den > 0 {
						b.ReportMetric(100*s.LocalCASPerOp/den, "localCAS%")
					}
					byDist := rec.LocalityByDistance(rec.CASHeatmap())
					b.ReportMetric(byDist[21], "remotePairCAS")
				})
		})
	}
}

// BenchmarkFig14to17_ReadLocality regenerates the read heatmaps' essence
// (Figs. 14–17): NUMA-local read fraction, MC-WH.
func BenchmarkFig14to17_ReadLocality(b *testing.B) {
	for _, algo := range experiments.HeatmapAlgos {
		b.Run(algo, func(b *testing.B) {
			instrumentedBench(b, algo, experiments.MC, experiments.WH, nil,
				func(b *testing.B, rec *stats.Recorder) {
					s := rec.Summary()
					if den := s.LocalReadsPerOp + s.RemoteReadsPerOp; den > 0 {
						b.ReportMetric(100*s.LocalReadsPerOp/den, "localReads%")
					}
				})
		})
	}
}

// BenchmarkTable2_CacheMisses regenerates Table 2: modelled L1/L2/L3 misses
// per operation, HC-WH, at the paper's 8/16/32 thread counts.
func BenchmarkTable2_CacheMisses(b *testing.B) {
	for _, threads := range []int{8, 16, 32} {
		for _, algo := range experiments.Table2Algos {
			b.Run(fmt.Sprintf("%s/threads=%d", algo, threads), func(b *testing.B) {
				machine := benchMachine(b, threads)
				for i := 0; i < b.N; i++ {
					sim := cachesim.New(machine, cachesim.Config{})
					rec := stats.NewRecorder(machine, sim)
					rec.SetLatency(stats.DefaultLatencyModel())
					a, err := NewAdapter(algo, machine, AdapterOptions{KeySpace: experiments.HC.KeySpace, Recorder: rec, Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					_, err = sbench.Trial(machine, a, benchWorkload(experiments.HC, experiments.WH))
					a.Close()
					if err != nil {
						b.Fatal(err)
					}
					l1, l2, l3 := sim.Misses().PerOp(rec.Summary().Ops)
					b.ReportMetric(l1, "L1miss/op")
					b.ReportMetric(l2, "L2miss/op")
					b.ReportMetric(l3, "L3miss/op")
				}
			})
		}
	}
}

// BenchmarkMaintainOverhead compares the lazy layered map's maintenance
// policies — the paper's inline protocol vs. the background helper pool — on
// the write-heavy high- and low-contention scenarios, reporting both
// throughput and sampled p99 operation latency. The interesting number
// is the tail: background maintenance moves finishInsert/retire/relink work
// off the critical path, so p99 should drop (or hold) while throughput stays
// within noise of inline.
func BenchmarkMaintainOverhead(b *testing.B) {
	scenarios := []struct {
		name string
		sc   experiments.Scenario
	}{
		{"HC_WH", experiments.HC},
		{"LC_WH", experiments.LC},
	}
	policies := []struct {
		name   string
		policy MaintenancePolicy
	}{
		{"inline", MaintInline},
		{"background", MaintBackground},
	}
	machine := benchMachine(b, benchThreads)
	for _, sc := range scenarios {
		for _, p := range policies {
			b.Run(sc.name+"/"+p.name, func(b *testing.B) {
				var opsPerMs, p99 float64
				for i := 0; i < b.N; i++ {
					a, err := NewAdapter("lazy_layered_sg", machine, AdapterOptions{
						KeySpace:    sc.sc.KeySpace,
						Maintenance: p.policy,
						Seed:        int64(i),
					})
					if err != nil {
						b.Fatal(err)
					}
					w := benchWorkload(sc.sc, experiments.WH)
					w.LatencySample = 64
					res, err := sbench.Trial(machine, a, w)
					a.Close()
					if err != nil {
						b.Fatal(err)
					}
					opsPerMs += res.OpsPerMs
					p99 += float64(res.Latency.P99Ns)
				}
				b.ReportMetric(opsPerMs/float64(b.N), "ops/ms")
				b.ReportMetric(p99/float64(b.N), "p99ns")
			})
		}
	}
}

// BenchmarkIndexOverhead measures the shared hash index (internal/hindex,
// DESIGN.md §9) on its target workload: point reads of keys *other stripes*
// inserted. The local structure cannot jump near those keys, so without the
// index every such Get would pay a descent from the head tower. Each
// sub-benchmark runs a 90/10 Get/Insert mix from one handle over a structure
// preloaded round-robin across the other 15 stripes; EXPERIMENTS.md records
// the figures against the descent the index replaced.
func BenchmarkIndexOverhead(b *testing.B) {
	const keys = 4096
	for _, kind := range []Kind{LazyLayeredSG, LayeredSG} {
		b.Run(fmt.Sprintf("%s/indexed", kind), func(b *testing.B) {
			machine := benchMachine(b, benchThreads)
			m, err := New[int64, int64](Config{Machine: machine, Kind: kind, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			// Preload round-robin across every stripe except the measuring
			// one: stripe 0 owns none of the read set, so its local structure
			// cannot jump near it — the cross-stripe situation the index
			// exists for.
			for k := int64(0); k < keys; k++ {
				m.Handle(1+int(k)%(benchThreads-1)).Insert(k, k)
			}
			h := m.Handle(0)
			fresh := int64(keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%10 == 9 {
					h.Insert(fresh, fresh)
					fresh++
					continue
				}
				k := int64(i*2654435761) % keys
				if _, ok := h.Get(k); !ok {
					b.Fatalf("preloaded key %d missing", k)
				}
			}
		})
	}
}

// BenchmarkOps measures raw single-threaded operation latency per algorithm
// on a preloaded MC-sized structure — the ns/op ground truth under the
// throughput figures.
func BenchmarkOps(b *testing.B) {
	for _, algo := range Algorithms() {
		b.Run(algo, func(b *testing.B) {
			machine := benchMachine(b, 4)
			a, err := NewAdapter(algo, machine, AdapterOptions{KeySpace: experiments.MC.KeySpace, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			if err := sbench.Preload(machine, a, benchWorkload(experiments.MC, experiments.WH)); err != nil {
				b.Fatal(err)
			}
			h := a.Handle(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := int64(i*2654435761) % experiments.MC.KeySpace
				switch i % 4 {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Remove(k)
				default:
					h.Contains(k)
				}
			}
		})
	}
}

// BenchmarkPQueue regenerates the appendix's preliminary priority-queue
// numbers: push/popMin throughput over the layered structure, for the exact
// queue and the SprayList-style relaxed extension. Under contention the
// relaxed pop spreads consumers over near-minimal nodes instead of making
// them fight over the head.
func BenchmarkPQueue(b *testing.B) {
	machine := benchMachine(b, 8)
	pops := map[string]func(h *Handle[int64, int64]) bool{
		"exact": func(h *Handle[int64, int64]) bool {
			_, _, ok := h.RemoveMin()
			return ok
		},
		"relaxed": func(h *Handle[int64, int64]) bool {
			_, _, ok := h.RemoveMinRelaxed(2)
			return ok
		},
	}
	for _, name := range []string{"exact", "relaxed"} {
		pop := pops[name]
		b.Run(name, func(b *testing.B) {
			const n = 5000
			for i := 0; i < b.N; i++ {
				q, err := New[int64, int64](Config{Machine: machine, Kind: LazyLayeredSG, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				h := q.Handle(0)
				for k := int64(0); k < n; k++ {
					h.Insert(k*7919%100003, k)
				}
				for pop(h) {
				}
			}
			b.ReportMetric(float64(b.N*n)/float64(b.Elapsed().Milliseconds()+1), "pushpop/ms")
		})
	}
}

// BenchmarkReclaim measures the epoch-based slot-reclamation pipeline on the
// update hot path and the MVCC read surface it enables. The churn pair runs
// remove+insert workloads under the background engine with a fixed flush
// cadence: ns/op is the pipeline's hot-path cost (stamp sequencer + epoch
// pins + limbo hand-off; see EXPERIMENTS.md for the measured figures), while
// slotsCarved/slotsLive show the capacity story: carved slots plateau near
// the working set instead of tracking total allocations. The snapshot
// sub-benchmarks price acquisition and the consistent-vs-weak RangeScan.
// Results in EXPERIMENTS.md; `make bench-reclaim` runs the suite.
func BenchmarkReclaim(b *testing.B) {
	newChurnMap := func(b *testing.B) *Map[int64, int64] {
		var now atomic.Int64
		m, err := New[int64, int64](Config{
			Machine:          benchMachine(b, 4),
			Kind:             LazyLayeredSG,
			Seed:             1,
			Maintenance:      MaintBackground,
			CommissionPeriod: 500,
			Clock:            func() int64 { return now.Add(50) },
		})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	// turnover: a moving 1024-key window — every iteration inserts a fresh
	// key and removes the eldest, which is never re-inserted, so each removal
	// ages past its commission period and retires. This is the workload where
	// the slot pipeline earns its keep: slotsCarved plateaus instead of
	// tracking b.N.
	b.Run("turnover/reclaim", func(b *testing.B) {
		m := newChurnMap(b)
		defer m.Close()
		h := m.Handle(0)
		for k := int64(0); k < 1024; k++ {
			h.Insert(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Insert(int64(1024+i), int64(i))
			h.Remove(int64(i))
			// Stands in for helper park cycles at benchmark speed. The
			// cadence stays under the retire-queue capacity: removals enqueue
			// deferred retires during their commission period, and a flush
			// interval larger than the queue drops the excess on the floor
			// (the lazy protocol then only finds those nodes again if a later
			// search stumbles over them, which a one-way key window never
			// does).
			if i&255 == 255 {
				m.Maintenance().Flush()
			}
		}
		b.StopTimer()
		for i := 0; i < 64 && m.Maintenance().LimboDepth() > 0; i++ {
			m.Maintenance().Flush()
		}
		st := m.SharedStructure().ArenaStats()
		b.ReportMetric(float64(st.SlotsUsed), "slotsCarved")
		b.ReportMetric(float64(st.SlotsLive()), "slotsLive")
		b.ReportMetric(float64(st.SlotsReclaimed)/float64(b.N), "reclaimed/op")
	})
	// revive: remove+insert of the same preloaded key, which the lazy
	// protocol resolves as an in-place revival. No slots turn over; ns/op is
	// the MVCC machinery's hot-path cost (epoch pins plus born/dead stamping)
	// on top of the revival itself.
	b.Run("revive/reclaim", func(b *testing.B) {
		m := newChurnMap(b)
		defer m.Close()
		h := m.Handle(0)
		for k := int64(0); k < 1024; k++ {
			h.Insert(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := int64(i*2654435761) % 1024
			h.Remove(k)
			h.Insert(k, k)
		}
	})
	b.Run("snapshot/acquire", func(b *testing.B) {
		m := newChurnMap(b)
		defer m.Close()
		h := m.Handle(0)
		for k := int64(0); k < 1024; k++ {
			h.Insert(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := m.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
	})
	for _, mode := range []struct {
		name string
		kind Kind
	}{
		{"consistent", LazyLayeredSG}, // snapshot-backed RangeScan
		{"weak", LayeredSG},           // Handle.Ascend under one lease
	} {
		b.Run("rangescan/"+mode.name, func(b *testing.B) {
			var now atomic.Int64
			st, err := NewStore[int64, int64](Config{
				Machine:          benchMachine(b, 4),
				Kind:             mode.kind,
				Seed:             1,
				Maintenance:      MaintBackground,
				CommissionPeriod: 500,
				Clock:            func() int64 { return now.Add(50) },
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			for k := int64(0); k < 1024; k++ {
				st.Insert(k, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				st.RangeScan(0, 1023, func(int64, int64) bool {
					n++
					return true
				})
				if n == 0 {
					b.Fatal("empty scan")
				}
			}
		})
	}
}
