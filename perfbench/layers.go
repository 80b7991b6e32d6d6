package main

import (
	"slices"
)

// metricDef is a metric's name and unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed by every workload.
// op_* is the workload's headline operation: Store.Get on point,
// Store.RangeScan on scan, one acknowledged batch on durable; write_p50_us
// is Store.Insert/Store.Remove on point and scan and Store.InsertBatch on
// durable.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"write_p50_us", "us"},
	{"heap_bytes_per_key", "B"},
	{"restart_s", "s"},
}

// perLayer are the metrics of a traced run, printed by every workload.
var perLayer = []metricDef{
	{"store.lease_ns_p50", "ns"},
	{"store.lease_hit_ratio", "ratio"},
	{"store.lease_blocks_per_kop", "1/kop"},
	{"core.get_local_ns_p50", "ns"},
	{"core.get_index_ns_p50", "ns"},
	{"core.get_miss_ns_p50", "ns"},
	{"core.write_ns_p50", "ns"},
	{"core.head_descent_ratio", "ratio"},
	{"skipgraph.nodes_visited_per_op", "nodes/op"},
	{"skipgraph.cas_retries_per_kop", "1/kop"},
	{"hindex.hit_ratio", "ratio"},
	{"hindex.entries_per_live_key", "entries/key"},
	{"node.slots_per_live_key", "slots/key"},
	{"node.sim_l3_misses_per_op", "misses/op"},
	{"epoch.snapshot_ns_p50", "ns"},
	{"core.scan_seek_ns_p50", "ns"},
	{"core.scan_ns_per_key", "ns/key"},
	{"core.insert_batch_ns_per_key", "ns/key"},
	{"persist.barrier_ns_p50", "ns"},
	{"persist.barrier_ns_p90", "ns"},
	{"persist.wal_bytes_per_mutation", "B"},
	{"persist.dump_keys_s", "keys/s"},
	{"persist.dump_bytes_per_key", "B"},
	{"persist.load_keys_s", "keys/s"},
	{"persist.replay_records", "count"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_cycles_per_mop", "1/Mop"},
	{"trace.overhead_ratio", "ratio"},
}

// spanMetric is a per-layer metric derived from spans alone, with the
// number of samples behind it and whether they came from the workload's
// traffic or, where the traffic never makes that call, from the sweep.
type spanMetric struct {
	value   float64
	samples int
	src     source
}

// spanMetrics derives the span-based per-layer metrics. Each metric uses
// the traffic's samples when the traffic made the call, else the sweep's.
func spanMetrics(spans []span) map[string]spanMetric {
	type series [nSources][]float64
	var (
		lease, snap        = map[uint64]float64{}, map[uint64]float64{}
		leaseSrc, snapSrc  = map[uint64]source{}, map[uint64]source{}
		get                [nPaths]series
		write, seek, walk  series
		batch, barrierDurs series
	)
	for _, s := range spans {
		d := float64(s.dur())
		switch s.name {
		case spAcquire, spRelease:
			lease[s.req] += d
			leaseSrc[s.req] = s.src
		case spSnapshot, spSnapClose:
			snap[s.req] += d
			snapSrc[s.req] = s.src
		case spHandleGet:
			get[s.path][s.src] = append(get[s.path][s.src], d)
		case spHandleInsert, spHandleRemove:
			write[s.src] = append(write[s.src], d)
		case spSeek:
			seek[s.src] = append(seek[s.src], d)
		case spWalk:
			if s.keys > 0 {
				walk[s.src] = append(walk[s.src], d/float64(s.keys))
			}
		case spInsertBatch:
			if s.keys > 0 {
				batch[s.src] = append(batch[s.src], d/float64(s.keys))
			}
		case spBarrier:
			barrierDurs[s.src] = append(barrierDurs[s.src], d)
		}
	}
	perReq := func(m map[uint64]float64, src map[uint64]source) series {
		var s series
		for req, d := range m {
			s[src[req]] = append(s[src[req]], d)
		}
		return s
	}
	out := map[string]spanMetric{}
	put := func(name string, s series, q float64) {
		for src := srcTraffic; src < nSources; src++ {
			if len(s[src]) > 0 {
				out[name] = spanMetric{value: quantile(s[src], q), samples: len(s[src]), src: src}
				return
			}
		}
	}
	put("store.lease_ns_p50", perReq(lease, leaseSrc), 0.5)
	put("core.get_local_ns_p50", get[pathLocal], 0.5)
	put("core.get_index_ns_p50", get[pathIndex], 0.5)
	put("core.get_miss_ns_p50", get[pathMiss], 0.5)
	put("core.write_ns_p50", write, 0.5)
	put("epoch.snapshot_ns_p50", perReq(snap, snapSrc), 0.5)
	put("core.scan_seek_ns_p50", seek, 0.5)
	put("core.scan_ns_per_key", walk, 0.5)
	put("core.insert_batch_ns_per_key", batch, 0.5)
	put("persist.barrier_ns_p50", barrierDurs, 0.5)
	put("persist.barrier_ns_p90", barrierDurs, 0.9)
	return out
}

// selfTimes summarizes each span name's duration and self time (its
// duration minus the time its children cover), as medians in nanoseconds.
type selfTime struct {
	name      string
	n         int
	p50, self float64
}

func selfTimes(spans []span) []selfTime {
	children := map[uint64]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] += s.dur()
		}
	}
	var durs, selfs [nSpanNames][]float64
	for _, s := range spans {
		durs[s.name] = append(durs[s.name], float64(s.dur()))
		selfs[s.name] = append(selfs[s.name], float64(s.dur()-children[s.id]))
	}
	var out []selfTime
	for n := spanName(0); n < nSpanNames; n++ {
		if len(durs[n]) > 0 {
			out = append(out, selfTime{spanNames[n], len(durs[n]), quantile(durs[n], 0.5), quantile(selfs[n], 0.5)})
		}
	}
	return out
}

// quantile returns the q-quantile of xs (sorting xs).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[int(q*float64(len(xs)-1))]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
