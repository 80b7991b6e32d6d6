package main

import (
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"layeredsg"
)

// workload is one traffic mix over the Store. A workload's model of which
// keys are live is exact for the keys it owns; load resets it.
type workload interface {
	// storeConfig returns a fresh store's configuration, given the default
	// one and an empty directory the store may own.
	storeConfig(cfg layeredsg.Config, dir string) layeredsg.Config
	// load finishes a fresh store's set-up: the bulk load, and for durable
	// the Barrier that acknowledges it.
	load(st *store, t *tally) error
	// work runs one client's share of a round: n operations, scans or
	// batches. A client doing open-ended work stops once stop is set.
	work(c *client, n int, stop *atomic.Bool)
	// afterDump journals what a restart must replay on top of a dump.
	afterDump(cs []*client)
	// present returns the sorted keys the model knows are live in
	// [from, to].
	present(from, to int64) []int64
	liveKeys() int
	// keyRange returns the smallest and largest key the model may hold.
	keyRange() (int64, int64)
	// classify names the lookup path a traced Handle.Get of k through
	// stripe took.
	classify(k int64, stripe int, found bool) getPath
	sizes() sizes
}

// sizes are a workload's fixed amounts of work.
type sizes struct {
	round      int          // units per client per round
	perSecond  float64      // timed rounds per --seconds: the round count is fixed, not timed
	restarts   int          // restart rounds per repetition; more where a restart is short
	count      int          // units of the cache-simulation pass
	caps       [nLat]int    // latency samples kept per client per round
	primary    latKind      // series behind op_p50_us / op_p90_us
	write      latKind      // series behind write_p50_us
	spanPeriod uint32       // a traced client decomposes every spanPeriod-th call
	names      [nLat]string // the series' names in the report
}

var workloads = map[string]func(seed uint64, tiny bool) workload{
	"point":   newPoint,
	"scan":    newScan,
	"durable": newDurable,
}

// point: 90 % Store.Get of a uniform key over [0, 2^20) with a random half
// loaded (about 200 MB of heap, larger than the LLC), 10 % Insert/Remove
// churn of absent keys each client owns. Reads split over the three lookup
// paths: own-stripe local hash, shared hash index, and index miss →
// local-floor jump → descent.
type point struct {
	sz       sizes
	space    int64
	keys     []int64 // load order
	sorted   []int64
	loaded   []bool // by key
	stripe   []int8 // loading stripe by key
	stripeOf []int8 // loading stripe by load index
	churn    [clients]int64
}

func newPoint(seed uint64, tiny bool) workload {
	w := &point{space: 1 << 20}
	w.sz = sizes{round: 200_000, perSecond: 1.5, restarts: 2, count: 20_000, spanPeriod: 97, primary: latGet, write: latWrite}
	if tiny {
		w.space, w.sz.round, w.sz.count = 1<<12, 4_000, 1_000
	}
	w.sz.caps[latGet] = w.sz.round
	w.sz.caps[latWrite] = w.sz.round / 5
	w.sz.names = [nLat]string{latGet: "get", latWrite: "write"}
	rng := rand.New(rand.NewPCG(seed, 1))
	perm := rng.Perm(int(w.space))
	w.loaded = make([]bool, w.space)
	w.stripe = make([]int8, w.space)
	w.keys = make([]int64, w.space/2)
	for i := range w.keys {
		w.keys[i] = int64(perm[i])
		w.loaded[perm[i]] = true
	}
	w.sorted = slices.Clone(w.keys)
	slices.Sort(w.sorted)
	w.stripeOf = make([]int8, len(w.keys))
	return w
}

func (w *point) sizes() sizes { return w.sz }

func (w *point) storeConfig(cfg layeredsg.Config, _ string) layeredsg.Config { return cfg }

func (w *point) load(st *store, t *tally) error {
	w.churn = [clients]int64{-1, -1}
	if err := bulkLoad(st, w.keys, w.stripeOf, t); err != nil {
		return err
	}
	for i, k := range w.keys {
		w.stripe[k] = w.stripeOf[i]
	}
	return nil
}

func (w *point) want(id int, k int64) presence {
	switch {
	case w.loaded[k] || k == w.churn[id]:
		return present
	case k%clients == int64(id):
		return absent
	}
	return unknown
}

func (w *point) work(c *client, n int, _ *atomic.Bool) {
	for i := 0; i < n; i++ {
		c.ops++
		if c.rng.IntN(10) < 9 {
			k := c.rng.Int64N(w.space)
			start := time.Now()
			v, ok := c.get(k)
			c.record(latGet, start)
			c.t.checkGet(k, v, ok, w.want(c.id, k))
			continue
		}
		if k := w.churn[c.id]; k >= 0 {
			start := time.Now()
			ok := c.remove(k)
			c.record(latWrite, start)
			c.t.checkWrite("remove", k, ok)
			w.churn[c.id] = -1
			continue
		}
		k := w.absentOwned(c)
		start := time.Now()
		ok := c.insert(k)
		c.record(latWrite, start)
		c.t.checkWrite("insert", k, ok)
		w.churn[c.id] = k
	}
}

// absentOwned draws a key of the client's parity that the load left absent.
func (w *point) absentOwned(c *client) int64 {
	for {
		k := c.rng.Int64N(w.space/clients)*clients + int64(c.id)
		if !w.loaded[k] {
			return k
		}
	}
}

func (w *point) afterDump([]*client) {}

func (w *point) present(from, to int64) []int64 {
	keys := inRange(w.sorted, from, to)
	for _, k := range w.churn {
		if k >= from && k <= to && k >= 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func (w *point) keyRange() (int64, int64) { return 0, w.space - 1 }

func (w *point) liveKeys() int {
	n := len(w.keys)
	for _, k := range w.churn {
		if k >= 0 {
			n++
		}
	}
	return n
}

func (w *point) classify(k int64, stripe int, found bool) getPath {
	switch {
	case k >= 0 && k < w.space && w.loaded[k]:
		if int(w.stripe[k]) == stripe {
			return pathLocal
		}
		return pathIndex
	case !found:
		return pathMiss
	}
	return pathOther
}

// inRange returns a copy of the keys of sorted within [from, to].
func inRange(sorted []int64, from, to int64) []int64 {
	lo, _ := slices.BinarySearch(sorted, from)
	hi, found := slices.BinarySearch(sorted, to)
	if found {
		hi++
	}
	return slices.Clone(sorted[lo:hi])
}

const (
	minKey = int64(-1 << 63)
	maxKey = int64(1<<63 - 1)
)

// scan: one client calls Store.RangeScan(from, from+199) from even starts
// spread over [0, 2^17) with the 65,536 even keys loaded (about 26 MB,
// which fits in the LLC) and never written; the other client inserts and
// removes random odd keys beside it until the scanner's round is done.
// Each scan takes a snapshot ticket and walks level 0 past dead and revived
// nodes; the scanner takes no lease and never probes the hash index.
type scan struct {
	sz       sizes
	space    int64
	keys     []int64 // load order
	sorted   []int64
	stripeOf []int8
}

// scanWidth makes every scan cover [from, from+199]: 100 loaded keys.
const scanWidth = 199

func newScan(seed uint64, tiny bool) workload {
	w := &scan{space: 1 << 17}
	w.sz = sizes{round: 100, perSecond: 0.9, restarts: 5, count: 20, spanPeriod: 97, primary: latScan, write: latWrite}
	if tiny {
		w.space, w.sz.round, w.sz.count = 1<<11, 20, 5
	}
	w.sz.caps[latScan] = 4 * w.sz.round
	w.sz.caps[latWrite] = 1 << 18
	w.sz.names = [nLat]string{latScan: "scan", latWrite: "write"}
	rng := rand.New(rand.NewPCG(seed, 2))
	w.sorted = make([]int64, w.space/2)
	for i := range w.sorted {
		w.sorted[i] = 2 * int64(i)
	}
	w.keys = slices.Clone(w.sorted)
	rng.Shuffle(len(w.keys), func(i, j int) { w.keys[i], w.keys[j] = w.keys[j], w.keys[i] })
	w.stripeOf = make([]int8, len(w.keys))
	return w
}

func (w *scan) sizes() sizes { return w.sz }

func (w *scan) storeConfig(cfg layeredsg.Config, _ string) layeredsg.Config { return cfg }

func (w *scan) load(st *store, t *tally) error { return bulkLoad(st, w.keys, w.stripeOf, t) }

func (w *scan) work(c *client, n int, stop *atomic.Bool) {
	if c.id != 0 {
		// The writer times one pair in sixteen: it makes millions of writes
		// a round, far more samples than its quantiles need.
		for i := 0; !stop.Load(); i++ {
			k := 2*c.rng.Int64N(w.space/2) + 1
			if i%16 != 0 {
				c.t.checkWrite("insert", k, c.insert(k))
				c.t.checkWrite("remove", k, c.remove(k))
				continue
			}
			start := time.Now()
			ok := c.insert(k)
			c.record(latWrite, start)
			c.t.checkWrite("insert", k, ok)
			start = time.Now()
			ok = c.remove(k)
			c.record(latWrite, start)
			c.t.checkWrite("remove", k, ok)
		}
		return
	}
	defer stop.Store(true)
	// Stratified starts: scan i of a round starts in its own 1/n-th of the
	// key space, in a random order. Seek cost grows with the start key, so
	// uniform starts would make each round's latency quantiles depend on
	// where its hundred or so starts happened to fall.
	starts := (w.space - scanWidth) / 2
	for _, stratum := range c.rng.Perm(n) {
		lo, hi := starts*int64(stratum)/int64(n), starts*int64(stratum+1)/int64(n)
		from := 2 * (lo + c.rng.Int64N(max(hi-lo, 1)))
		to := from + scanWidth
		start := time.Now()
		got := c.rangeScan(from, to)
		c.record(latScan, start)
		c.t.checkScan(from, to, got, inRange(w.sorted, from, to))
		c.ops++
	}
}

func (w *scan) afterDump([]*client) {}

func (w *scan) present(from, to int64) []int64 { return inRange(w.sorted, from, to) }

func (w *scan) liveKeys() int { return len(w.sorted) }

func (w *scan) keyRange() (int64, int64) { return 0, w.space - 1 }

func (w *scan) classify(_ int64, _ int, found bool) getPath { return outcomePath(found) }

// durable: a journaled store (WAL with SyncGroup group commit) whose live
// window of 131,072 keys drifts: each client repeats one acknowledged batch
// of 64 mutations — InsertBatch of 32 fresh keys from its own increasing
// sequence, removal in one Store.Do session of the 32 keys it inserted one
// window earlier, then Store.Barrier. Live keys stay fixed while distinct
// keys keep growing.
type durable struct {
	sz        sizes
	perClient int64
	lo, hi    [clients]int64 // client c's live sequence indices
	keys      []int64        // the set-up window, load order
	stripeOf  []int8
	ins, rem  [clients][]int64
	vals      [clients][]int64
	suffix    int // batches per client journaled after each dump
}

// batchKeys is the number of fresh keys per batch (and of removals).
const batchKeys = 32

func newDurable(_ uint64, tiny bool) workload {
	window := int64(131_072)
	w := &durable{sz: sizes{round: 750, perSecond: 3, restarts: 3, count: 200, spanPeriod: 61, primary: latCommit, write: latBatch}, suffix: 32}
	if tiny {
		window, w.sz.round, w.sz.count, w.suffix = 2_048, 40, 10, 4
	}
	w.perClient = window / clients
	w.sz.caps[latCommit] = w.sz.round
	w.sz.caps[latBatch] = w.sz.round
	w.sz.names = [nLat]string{latCommit: "commit", latBatch: "insert_batch"}
	w.keys = make([]int64, 0, window)
	for i := int64(0); i < w.perClient; i++ {
		for c := 0; c < clients; c++ {
			w.keys = append(w.keys, w.key(c, i))
		}
	}
	w.stripeOf = make([]int8, len(w.keys))
	for c := range w.ins {
		w.ins[c] = make([]int64, batchKeys)
		w.rem[c] = make([]int64, batchKeys)
		w.vals[c] = make([]int64, batchKeys)
	}
	return w
}

// key is the i-th key of client c's increasing sequence. Each client's
// keys have a range of their own, so the two clients' fresh keys never land
// side by side in the shared structure.
func (w *durable) key(c int, i int64) int64 { return int64(c)<<40 | i }

func (w *durable) sizes() sizes { return w.sz }

func (w *durable) keyRange() (int64, int64) {
	return w.key(0, w.lo[0]), w.key(clients-1, w.hi[clients-1]-1)
}

func (w *durable) storeConfig(cfg layeredsg.Config, dir string) layeredsg.Config {
	cfg.WAL = dir
	cfg.WALSync = layeredsg.SyncNever
	return cfg
}

func (w *durable) load(st *store, t *tally) error {
	for c := range w.lo {
		w.lo[c], w.hi[c] = 0, w.perClient
	}
	if err := bulkLoad(st, w.keys, w.stripeOf, t); err != nil {
		return err
	}
	err := st.Barrier()
	t.checkErr("set-up barrier", err)
	return err
}

func (w *durable) work(c *client, n int, _ *atomic.Bool) {
	ins, rem, vals := w.ins[c.id], w.rem[c.id], w.vals[c.id]
	for b := 0; b < n; b++ {
		lo, hi := w.lo[c.id], w.hi[c.id]
		for j := range ins {
			ins[j] = w.key(c.id, hi+int64(j))
			vals[j] = valueOf(ins[j])
			rem[j] = w.key(c.id, lo+int64(j))
		}
		start := time.Now()
		inserted, err := c.insertBatch(ins, vals)
		c.record(latBatch, start)
		c.t.checkErr("insert batch", err)
		c.t.checkCount("insert batch", ins[0], inserted, batchKeys)
		c.t.checkCount("removal session", rem[0], c.removeAll(rem), batchKeys)
		c.t.checkErr("barrier", c.barrier())
		c.record(latCommit, start)
		w.lo[c.id], w.hi[c.id] = lo+batchKeys, hi+batchKeys
		c.ops += 2 * batchKeys
	}
}

// afterDump journals a fixed suffix of batches past the dump, so every
// restart replays the same number of WAL records.
func (w *durable) afterDump(cs []*client) {
	for _, c := range cs {
		w.work(c, w.suffix, nil)
	}
}

func (w *durable) present(from, to int64) []int64 {
	var keys []int64
	for c := range w.lo {
		for i := w.lo[c]; i < w.hi[c]; i++ {
			if k := w.key(c, i); k >= from && k <= to {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	return keys
}

func (w *durable) liveKeys() int { return int(clients * w.perClient) }

func (w *durable) classify(_ int64, _ int, found bool) getPath { return outcomePath(found) }

// outcomePath classifies a Get of a key whose inserting stripe the model
// does not track. Only point's traffic reads; the sweep classifies its own.
func outcomePath(found bool) getPath {
	if !found {
		return pathMiss
	}
	return pathOther
}
