package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"layeredsg"
	"layeredsg/internal/cachesim"
)

// setupReps is how many times an untraced run repeats the whole workload
// (set-up, warm-up, its share of the timed rounds, restarts); setup_s is
// the median over them, since a single set-up is too short to time
// steadily.
const setupReps = 3

// runner binds a workload to its clients and its current store.
type runner struct {
	o    options
	w    workload
	sz   sizes
	sc   *scratch
	cfg  layeredsg.Config // the current store's configuration
	st   *store
	cs   []*client
	t    tally  // set-up, restart and sweep checks
	base uint64 // live heap before the current store was built
	pool *samples
}

func newRunner(o options) (*runner, error) {
	sc, err := newScratch(o.outDir)
	if err != nil {
		return nil, err
	}
	w := workloads[o.workload](o.seed, o.tiny)
	s := &runner{o: o, w: w, sz: w.sizes(), sc: sc}
	for id := 0; id < clients; id++ {
		s.cs = append(s.cs, newClient(id, o.seed, s.sz.caps))
	}
	return s, nil
}

func (s *runner) bind(st *store) {
	s.st = st
	for _, c := range s.cs {
		c.st = st
	}
}

func (s *runner) close() {
	if s.st != nil {
		s.st.Close()
		s.bind(nil)
	}
	s.sc.remove()
}

// setup builds and bulk-loads a fresh store in place of the current one
// and returns how long that took. The live heap is sampled just before, so
// the store's heap can be told from the benchmark's own buffers.
func (s *runner) setup(cfg layeredsg.Config) (float64, error) {
	if s.st != nil {
		s.st.Close()
		s.bind(nil)
	}
	s.cfg = s.w.storeConfig(cfg, s.sc.dir("store"))
	s.base = heapAlloc()
	start := time.Now()
	st, err := layeredsg.NewStore[int64, int64](s.cfg)
	if err != nil {
		return 0, err
	}
	if err := s.w.load(st, &s.t); err != nil {
		st.Close()
		return 0, err
	}
	d := time.Since(start).Seconds()
	s.bind(st)
	return d, nil
}

// timed runs n timed rounds; their latency samples go to s.pool, when set.
func (s *runner) timed(n int) []roundResult {
	rs := make([]roundResult, n)
	for i := range rs {
		rs[i] = runRound(s.cs, s.pool, s.body)
	}
	return rs
}

func (s *runner) body(c *client, stop *atomic.Bool) { s.w.work(c, s.sz.round, stop) }

// rounds is the number of timed rounds for a run of the given length. It
// depends only on the seconds asked for, so every run does the same work:
// a faster program finishes sooner instead of doing more, which would
// change its heap and GC figures.
func (s *runner) rounds(seconds float64) int { return max(int(seconds*s.sz.perSecond+0.5), 1) }

// warm runs the untimed warm-up round and a forced collection.
func (s *runner) warm() {
	runRound(s.cs, nil, s.body)
	runtime.GC()
}

// restartResult is one restart round.
type restartResult struct {
	dump, load float64 // seconds
	ds         layeredsg.DumpStats
	ls         layeredsg.LoadStats
}

// restart dumps the store, journals the workload's suffix, closes the
// store, rebuilds it with LoadFromDisk from the dump (and the WAL, when the
// store has one), and checks the rebuilt store holds exactly the model's
// live keys. tr, when set, records a span around the dump and the load.
func (s *runner) restart(tr *tracer) (restartResult, error) {
	var r restartResult
	dir := filepath.Join(s.sc.root, "dump")
	var err error
	timed := func(name spanName, f func()) float64 {
		var i int
		if tr != nil {
			i, _ = tr.root(name)
		}
		start := time.Now()
		f()
		d := time.Since(start).Seconds()
		if tr != nil {
			tr.close(i)
		}
		return d
	}
	runtime.GC()
	r.dump = timed(spStoreToDisk, func() { r.ds, err = s.st.StoreToDisk(dir) })
	s.t.checkErr("StoreToDisk", err)
	if err != nil {
		return r, err
	}
	s.w.afterDump(s.cs)
	s.st.Close()
	s.bind(nil)
	var st *store
	runtime.GC()
	r.load = timed(spLoadFromDisk, func() { st, r.ls, err = layeredsg.LoadFromDisk[int64, int64](dir, s.cfg) })
	s.t.checkErr("LoadFromDisk", err)
	if err != nil {
		return r, err
	}
	s.bind(st)
	got, err := storeKeys(st)
	if err != nil {
		return r, err
	}
	s.t.checkState(got, s.w.present(minKey, maxKey))
	return r, nil
}

// oracle merges every client's tally with the runner's own.
func (s *runner) oracle() tally {
	t := s.t
	t.notes = append([]string(nil), s.t.notes...)
	for _, c := range s.cs {
		t.merge(&c.t)
	}
	return t
}

// runUntraced is the end-to-end run. It repeats the whole workload
// setupReps times — set-up, warm-up, its share of the timed rounds, a heap
// reading, and restart rounds — so that every metric is sampled across the
// run's whole length and one store's heap never outgrows one repetition.
// Every figure is a median over the repetitions (restart_s: over all
// restarts), so a host slowdown that covers one repetition does not move
// it. Within a repetition, throughput and latency pool its timed rounds:
// single rounds swing by 20 % and more on a shared 2-vCPU host, as a
// collection or a neighbour's burst lands in one round and not the next.
func runUntraced(o options) (*result, error) {
	cfg, err := baseConfig()
	if err != nil {
		return nil, err
	}
	s, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	perRep := (s.rounds(float64(o.seconds)) + setupReps - 1) / setupReps
	s.pool = newSamples(perRep, s.sz.caps)
	rounds := make([]roundResult, 0, perRep*setupReps)
	var setups, heaps, dumps, loads, thrs []float64
	var lats [][nLat]quantiles
	for rep := 0; rep < setupReps; rep++ {
		d, err := s.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		s.warm()
		rs := s.timed(perRep)
		rounds = append(rounds, rs...)
		thrs = append(thrs, throughput(rs))
		var lat [nLat]quantiles
		for k := range lat {
			lat[k] = summarize(s.pool[k])
			s.pool[k] = s.pool[k][:0]
		}
		lats = append(lats, lat)
		heaps = append(heaps, (float64(heapAlloc())-float64(s.base))/float64(s.w.liveKeys()))
		for i := 0; i < s.sz.restarts; i++ {
			r, err := s.restart(nil)
			if err != nil {
				return nil, fmt.Errorf("restart: %w", err)
			}
			if i == 0 {
				// The first dump after the timed rounds is the one whose
				// WAL prune drops their journal.
				dumps = append(dumps, r.dump)
			}
			loads = append(loads, r.load)
		}
	}

	res := newResult(o, s)
	thr := make([]float64, len(rounds))
	for i, r := range rounds {
		thr[i] = r.throughput()
	}
	res.Meta["round_throughputs"] = thr
	res.Meta["setup_times"] = setups
	res.Meta["dump_times"] = dumps
	res.Meta["restart_times"] = loads
	// latUS is the median over repetitions of one quantile of a latency
	// series, in microseconds, and the series' sample count.
	latUS := func(k latKind, q func(quantiles) float64) (float64, int) {
		vs := make([]float64, len(lats))
		n := 0
		for i, l := range lats {
			vs[i], n = q(l[k])/1e3, n+l[k].n
		}
		return median(vs), n
	}
	p50 := func(q quantiles) float64 { return q.p50 }
	p90 := func(q quantiles) float64 { return q.p90 }
	p99 := func(q quantiles) float64 { return q.p99 }
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("throughput_ops_s", median(thrs), "ops/s", len(rounds))
	v, n := latUS(s.sz.primary, p50)
	res.add("op_p50_us", v, "us", n)
	v, n = latUS(s.sz.primary, p90)
	res.add("op_p90_us", v, "us", n)
	v, n = latUS(s.sz.write, p50)
	res.add("write_p50_us", v, "us", n)
	res.add("heap_bytes_per_key", median(heaps), "B", len(heaps))
	res.add("restart_s", median(loads), "s", len(loads))
	res.extra("dump_s", median(dumps), "s", len(dumps))

	// The same series under the names of the workload's own operations,
	// with p99 where a repetition holds more than 10^5 samples.
	for k := latKind(0); k < nLat; k++ {
		name := s.sz.names[k]
		if name == "" || k == s.sz.write && name == "write" {
			continue // unnamed, or already reported as write_p50_us
		}
		v, n := latUS(k, p50)
		res.extra(name+"_p50_us", v, "us", n)
		v, n = latUS(k, p90)
		res.extra(name+"_p90_us", v, "us", n)
		if n > 100_000*len(lats) {
			v, n = latUS(k, p99)
			res.extra(name+"_p99_us", v, "us", n)
		}
	}
	res.finish(s.oracle())
	return res, nil
}

// gatedSink feeds the cache simulator only while on, so that the counting
// pass sees its own accesses and not the set-up's or the timed rounds'.
type gatedSink struct {
	on  atomic.Bool
	sim *cachesim.Simulator
}

func (g *gatedSink) Access(thread int, line uint64, write bool) {
	if g.on.Load() {
		g.sim.Access(thread, line, write)
	}
}

// spansPerClient bounds the spans a traced client keeps in memory.
const spansPerClient = 40_000

// runTraced is the per-layer run. It first measures untraced rounds on a
// store built exactly as in an untraced run (the throughput the tracing
// overhead is measured against, and the runtime's allocation and GC
// counts), then builds a second store with a Tracer and a Recorder
// attached, observability on, and decomposes sampled Store calls into
// spans while reading the program's counters around the traced rounds.
// A counting pass replays the workload through the cache simulator, a
// sweep covers the calls the workload's traffic does not make, and one
// traced restart round times dump and load.
func runTraced(o options) (*result, error) {
	cfg, err := baseConfig()
	if err != nil {
		return nil, err
	}
	s, err := newRunner(o)
	if err != nil {
		return nil, err
	}
	defer s.close()
	half := max(float64(o.seconds)/2, 0.5)

	if _, err := s.setup(cfg); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.warm()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := s.timed(s.rounds(half))
	runtime.ReadMemStats(&m1)
	plainOps := 0
	for _, r := range plain {
		plainOps += r.ops
	}

	obsTracer := layeredsg.NewTracer(layeredsg.TracerConfig{Name: "perfbench"})
	defer obsTracer.Close()
	sink := &gatedSink{sim: cachesim.New(cfg.Machine, cachesim.Config{})}
	tcfg := cfg
	tcfg.Tracer = obsTracer
	tcfg.Recorder = layeredsg.NewRecorder(cfg.Machine, sink)
	layeredsg.SetObservability(true)
	defer layeredsg.SetObservability(false)
	if _, err := s.setup(tcfg); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	s.warm()

	before, leases0, wal0 := obsTracer.Snapshot(), s.st.LeaseStats(), dirBytes(s.cfg.WAL)
	epoch := time.Now()
	var tracers []*tracer
	for _, c := range s.cs {
		c.tr = newTracer(epoch, c.id, s.sz.spanPeriod, spansPerClient, s.w.classify)
		tracers = append(tracers, c.tr)
	}
	traced := s.timed(s.rounds(half))
	for _, c := range s.cs {
		c.tr = nil
	}
	after, leases1, wal1 := obsTracer.Snapshot(), s.st.LeaseStats(), dirBytes(s.cfg.WAL)
	live := s.w.liveKeys()
	tracedOps := 0
	for _, r := range traced {
		tracedOps += r.ops
	}

	// Counting pass: client 0 alone replays the workload with the cache
	// simulator attached, after a half-length pass that warms its caches.
	c0 := s.cs[0]
	var stop atomic.Bool
	sink.on.Store(true)
	s.w.work(c0, max(s.sz.count/2, 1), &stop)
	c0.ops = 0
	warmMisses := sink.sim.Misses()
	s.w.work(c0, s.sz.count, &stop)
	countMisses, countOps := sink.sim.Misses(), c0.ops
	sink.on.Store(false)

	sw := newTracer(epoch, clients, 1, 8*spansPerClient, nil)
	sw.src = srcSweep
	s.sweep(sw)
	sw.src = srcTraffic // restarts are the workload's own
	rr, err := s.restart(sw)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}

	var spans []span
	for _, tr := range tracers {
		spans = append(spans, tr.spans...)
	}
	spans = append(spans, sw.spans...)
	spanFile := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d-%d.jsonl", o.workload, o.seed, os.Getpid()))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}

	res := newResult(o, s)
	res.Meta["span_file"] = spanFile
	res.Meta["spans"] = len(spans)
	res.Meta["untraced_rounds"] = len(plain)
	res.Meta["traced_rounds"] = len(traced)
	for name, m := range spanMetrics(spans) {
		res.add(name, m.value, unitOf(name), m.samples)
		res.Meta["source."+name] = sourceNames[m.src]
	}

	acquires := float64(leases1.Acquires - leases0.Acquires)
	res.add("store.lease_hit_ratio", ratio(float64(leases1.Hits-leases0.Hits), acquires), "ratio", int(acquires))
	res.add("store.lease_blocks_per_kop", 1e3*ratio(float64(leases1.Blocks-leases0.Blocks), float64(tracedOps)), "1/kop", tracedOps)

	var head, jump, visited, retries, ops float64
	for name, op := range after.Ops {
		prev := before.Ops[name]
		head += float64(op.Origins["head"] - prev.Origins["head"])
		jump += float64(op.Origins["local-jump"] - prev.Origins["local-jump"])
		visited += float64(op.Visited - prev.Visited)
		retries += float64(op.CASRetries - prev.CASRetries)
		ops += float64(op.Count - prev.Count)
	}
	res.add("core.head_descent_ratio", ratio(head, head+jump), "ratio", int(head+jump))
	res.add("skipgraph.nodes_visited_per_op", ratio(visited, ops), "nodes/op", int(ops))
	res.add("skipgraph.cas_retries_per_kop", 1e3*ratio(retries, ops), "1/kop", int(ops))

	var hits, misses, entries float64
	if after.Index != nil {
		hits, misses, entries = float64(after.Index.Hits), float64(after.Index.Misses), float64(after.Index.Entries)
		if before.Index != nil {
			hits -= float64(before.Index.Hits)
			misses -= float64(before.Index.Misses)
		}
	}
	res.add("hindex.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	res.add("hindex.entries_per_live_key", entries/float64(live), "entries/key", live)
	var slots float64
	if after.Arena != nil {
		slots = float64(after.Arena.SlotsLive())
	}
	res.add("node.slots_per_live_key", slots/float64(live), "slots/key", live)
	res.add("node.sim_l3_misses_per_op", ratio(float64(countMisses.L3-warmMisses.L3), float64(countOps)), "misses/op", countOps)

	// Durable counts acknowledged mutations as its operations; the other
	// workloads journal nothing.
	res.add("persist.wal_bytes_per_mutation", ratio(float64(wal1-wal0), float64(tracedOps)), "B", tracedOps)
	res.add("persist.dump_keys_s", ratio(float64(rr.ds.Records), rr.ds.Elapsed.Seconds()), "keys/s", int(rr.ds.Records))
	res.add("persist.dump_bytes_per_key", ratio(float64(rr.ds.Bytes), float64(rr.ds.Records)), "B", int(rr.ds.Records))
	res.add("persist.load_keys_s", ratio(float64(rr.ls.Records), rr.ls.Elapsed.Seconds()), "keys/s", int(rr.ls.Records))
	res.add("persist.replay_records", float64(rr.ls.WALReplayed), "count", 1)

	res.add("runtime.allocs_per_op", ratio(float64(m1.Mallocs-m0.Mallocs), float64(plainOps)), "allocs/op", plainOps)
	res.add("runtime.gc_cycles_per_mop", 1e6*ratio(float64(m1.NumGC-m0.NumGC), float64(plainOps)), "1/Mop", plainOps)
	res.add("trace.overhead_ratio", ratio(throughput(plain), throughput(traced)), "ratio", len(traced))
	res.selfTimes = selfTimes(spans)
	res.finish(s.oracle())
	return res, nil
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// dirBytes sums the sizes of the files in dir ("" or missing: 0).
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

// sweepProbes is the number of probe keys the sweep inserts for its reads.
const sweepProbes = 64

// sweep makes, on the traced store, every decomposed call whose span a
// per-layer metric needs, so that each metric has samples on every
// workload: Handle.Get on each lookup path, snapshot scans, batches with
// their Barriers, and single writes. It works on probe keys above the
// workload's keys and leaves the model's live set as it found it. A metric
// the workload's own traffic produces is taken from the traffic.
func (s *runner) sweep(tr *tracer) {
	st, t := s.st, &s.t
	_, hi := s.w.keyRange()
	base := hi + 1<<24
	probes := make([]int64, sweepProbes)
	l := st.Acquire()
	home := l.Stripe()
	for i := range probes {
		probes[i] = base + int64(i)
		t.checkWrite("sweep insert", probes[i], l.Handle().Insert(probes[i], valueOf(probes[i])))
	}
	l.Release()
	tr.classify = func(k int64, stripe int, found bool) getPath {
		switch {
		case !found:
			return pathMiss
		case k >= base && k < base+sweepProbes && stripe == home:
			return pathLocal
		case k >= base && k < base+sweepProbes:
			return pathIndex
		}
		return pathOther
	}
	const gets = 256
	for i := 0; i < gets; i++ {
		k := probes[i%len(probes)]
		v, ok := tr.get(st, k)
		t.checkGet(k, v, ok, present)
	}
	// A lease held on the probes' stripe sends the next reads elsewhere,
	// through the shared index.
	blocker := st.Acquire()
	for i := 0; i < gets; i++ {
		k := probes[i%len(probes)]
		v, ok := tr.get(st, k)
		t.checkGet(k, v, ok, present)
	}
	blocker.Release()
	for i := 0; i < gets; i++ {
		k := base + sweepProbes + int64(i)
		v, ok := tr.get(st, k)
		t.checkGet(k, v, ok, absent)
	}

	// Scans start at live keys, so each walks at least one.
	rng := rand.New(rand.NewPCG(s.o.seed, 3))
	live := s.w.present(minKey, maxKey)
	var buf []kv
	for i := 0; i < 8; i++ {
		from := live[rng.IntN(len(live))]
		to := from + scanWidth
		buf = tr.rangeScan(st, from, to, buf[:0])
		t.checkScan(from, to, buf, s.w.present(from, to))
	}

	keys, vals := make([]int64, batchKeys), make([]int64, batchKeys)
	for i := 0; i < 16; i++ {
		for j := range keys {
			keys[j] = base + 1<<20 + int64(i*batchKeys+j)
			vals[j] = valueOf(keys[j])
		}
		n, err := tr.insertBatch(st, keys, vals)
		t.checkErr("sweep insert batch", err)
		t.checkCount("sweep insert batch", keys[0], n, batchKeys)
		t.checkCount("sweep removal session", keys[0], tr.removeAll(st, keys), batchKeys)
		t.checkErr("sweep barrier", tr.barrier(st))
	}
	for _, k := range probes {
		t.checkWrite("sweep remove", k, tr.write(st, k, false))
	}
}
