package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"layeredsg"
)

type store = layeredsg.Store[int64, int64]

// The simulated machine every workload runs on: 2 sockets × 4 cores × 1
// SMT with 8 pinned threads, so 8 Store stripes and skip-graph MaxLevel 2.
const (
	sockets, coresPerSocket, smt = 2, 4, 1
	threads                      = 8
)

func machineShape() string {
	return fmt.Sprintf("%d sockets x %d cores x %d SMT, %d pinned threads, %d stripes, MaxLevel %d",
		sockets, coresPerSocket, smt, threads, threads, layeredsg.MaxLevel(threads))
}

// baseConfig is the default configuration: LazyLayeredSG with every other
// field zero (inline maintenance, ReclaimAuto, IndexAuto, RefAuto).
func baseConfig() (layeredsg.Config, error) {
	topo, err := layeredsg.NewTopology(sockets, coresPerSocket, smt)
	if err != nil {
		return layeredsg.Config{}, err
	}
	m, err := layeredsg.Pin(topo, threads)
	if err != nil {
		return layeredsg.Config{}, err
	}
	return layeredsg.Config{Machine: m, Kind: layeredsg.LazyLayeredSG}, nil
}

// clients is the number of closed-loop client goroutines, one per vCPU of
// the 2-vCPU hosts the benchmark was sized on: each sends its next request
// only after the previous one returned.
const clients = 2

// latKind names a per-operation latency series.
type latKind int

const (
	latGet    latKind = iota // Store.Get
	latWrite                 // Store.Insert or Store.Remove
	latScan                  // Store.RangeScan
	latCommit                // InsertBatch + removal session + Barrier
	latBatch                 // Store.InsertBatch
	nLat
)

// client is one closed-loop client: its random source, its share of the
// oracle, its latency samples for the current round, and, during the timed
// rounds of a traced run, its span recorder.
type client struct {
	id  int
	st  *store
	rng *rand.Rand
	t   tally
	lat [nLat][]uint32 // nanoseconds; capacity fixed before the timed rounds
	ops int            // operations counted toward throughput this round
	tr  *tracer
	buf []kv
}

func newClient(id int, seed uint64, caps [nLat]int) *client {
	c := &client{id: id, rng: rand.New(rand.NewPCG(seed, uint64(id)+0x9e3779b97f4a7c15))}
	for k := range c.lat {
		c.lat[k] = make([]uint32, 0, caps[k])
	}
	return c
}

// record adds one latency sample; samples beyond the preallocated capacity
// are dropped so the timed rounds never grow the benchmark's own buffers.
func (c *client) record(k latKind, start time.Time) {
	if len(c.lat[k]) < cap(c.lat[k]) {
		c.lat[k] = append(c.lat[k], uint32(min(time.Since(start).Nanoseconds(), 1<<32-1)))
	}
}

func (c *client) resetRound() {
	for k := range c.lat {
		c.lat[k] = c.lat[k][:0]
	}
	c.ops = 0
}

// The client's Store calls. On sampled operations of a traced round they go
// through the tracer, which makes the same call out of its public parts.

func (c *client) get(k int64) (int64, bool) {
	if c.tr != nil && c.tr.sample() {
		return c.tr.get(c.st, k)
	}
	return c.st.Get(k)
}

func (c *client) insert(k int64) bool {
	if c.tr != nil && c.tr.sample() {
		return c.tr.write(c.st, k, true)
	}
	return c.st.Insert(k, valueOf(k))
}

func (c *client) remove(k int64) bool {
	if c.tr != nil && c.tr.sample() {
		return c.tr.write(c.st, k, false)
	}
	return c.st.Remove(k)
}

// rangeScan returns the entries of [from, to] in c.buf.
func (c *client) rangeScan(from, to int64) []kv {
	c.buf = c.buf[:0]
	if c.tr != nil && c.tr.room() {
		c.buf = c.tr.rangeScan(c.st, from, to, c.buf)
		return c.buf
	}
	c.st.RangeScan(from, to, func(k, v int64) bool {
		c.buf = append(c.buf, kv{k, v})
		return true
	})
	return c.buf
}

func (c *client) insertBatch(keys, vals []int64) (int, error) {
	if c.tr != nil && c.tr.sample() {
		return c.tr.insertBatch(c.st, keys, vals)
	}
	return c.st.InsertBatch(keys, vals)
}

// removeAll removes keys in one Store.Do session and returns how many
// removals returned true.
func (c *client) removeAll(keys []int64) int {
	if c.tr != nil && c.tr.sample() {
		return c.tr.removeAll(c.st, keys)
	}
	n := 0
	c.st.Do(func(h *layeredsg.Handle[int64, int64]) {
		for _, k := range keys {
			if h.Remove(k) {
				n++
			}
		}
	})
	return n
}

func (c *client) barrier() error {
	if c.tr != nil && c.tr.sample() {
		return c.tr.barrier(c.st)
	}
	return c.st.Barrier()
}

// bulkLoad inserts keys[i] → 3·keys[i] through leases held on every stripe
// at once: two loader goroutines each acquire half of the stripes and deal
// their keys round-robin over their leases, so every stripe's local
// structures cover a share of the key space. (Loading through InsertBatch
// would leave every key in the one or two stripes the loaders happened to
// lease, and clients leasing the empty stripes would then descend from the
// head.) stripeOf[i] receives the stripe that loaded keys[i]. Every stripe
// must hold part of the load afterwards.
func bulkLoad(st *store, keys []int64, stripeOf []int8, t *tally) error {
	const loaders = 2
	per := st.Stripes() / loaders
	if per*loaders != st.Stripes() || len(keys) < st.Stripes() {
		return fmt.Errorf("bulk load: %d keys over %d stripes", len(keys), st.Stripes())
	}
	var wg sync.WaitGroup
	tallies := make([]tally, loaders)
	errs := make([]error, loaders)
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			leases := make([]*layeredsg.Lease[int64, int64], per)
			for j := range leases {
				leases[j] = st.Acquire()
			}
			tl := &tallies[g]
			for i := g; i < len(keys); i += loaders {
				l := leases[(i/loaders)%per]
				tl.checkWrite("load insert", keys[i], l.Handle().Insert(keys[i], valueOf(keys[i])))
				stripeOf[i] = int8(l.Stripe())
			}
			for _, l := range leases {
				if l.Handle().LocalTreeLen() == 0 {
					errs[g] = fmt.Errorf("bulk load: stripe %d holds no keys", l.Stripe())
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	for g := range tallies {
		t.merge(&tallies[g])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quantiles summarizes one latency series.
type quantiles struct {
	p50, p90, p99 float64 // nanoseconds
	n             int
}

func summarize(samples []uint32) quantiles {
	if len(samples) == 0 {
		return quantiles{}
	}
	slices.Sort(samples)
	at := func(q float64) float64 { return float64(samples[int(q*float64(len(samples)-1))]) }
	return quantiles{p50: at(0.50), p90: at(0.90), p99: at(0.99), n: len(samples)}
}

// roundResult is one round: its wall time and the operations counted
// toward throughput.
type roundResult struct {
	wall time.Duration
	ops  int
}

func (r roundResult) throughput() float64 { return float64(r.ops) / r.wall.Seconds() }

// throughput is all the rounds' operations over all their wall time.
func throughput(rounds []roundResult) float64 {
	var ops int
	var wall time.Duration
	for _, r := range rounds {
		ops += r.ops
		wall += r.wall
	}
	return float64(ops) / wall.Seconds()
}

// samples pools the latency samples of one repetition's timed rounds. Its
// buffers are allocated before the first store, so they never count as
// store heap.
type samples [nLat][]uint32

func newSamples(rounds int, caps [nLat]int) *samples {
	var s samples
	for k := range s {
		s[k] = make([]uint32, 0, rounds*clients*caps[k])
	}
	return &s
}

// runRound starts every client on the same gate, runs body in each, and
// returns once all have finished. stop lets a client end the others' open-
// ended work (the scan workload's writer runs until the scanner is done).
// The clients' latency samples go to pool, when it is set.
func runRound(cs []*client, pool *samples, body func(c *client, stop *atomic.Bool)) roundResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for _, c := range cs {
		c.resetRound()
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			<-gate
			body(c, &stop)
		}(c)
	}
	start := time.Now()
	close(gate)
	wg.Wait()
	r := roundResult{wall: time.Since(start)}
	for _, c := range cs {
		r.ops += c.ops
		if pool != nil {
			for k := range c.lat {
				pool[k] = append(pool[k], c.lat[k]...)
			}
		}
	}
	return r
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// heapAlloc forces collections and returns the live heap. It collects
// twice: a closed store stays reachable through its sync.Pool until the
// runtime drops the pool's victim cache, one collection after the first.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// storeKeys returns a quiescent store's full contents in key order.
func storeKeys(st *store) ([]kv, error) {
	snap, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	defer snap.Close()
	var got []kv
	snap.Ascend(func(k, v int64) bool {
		got = append(got, kv{k, v})
		return true
	})
	return got, nil
}

// scratch hands out fresh directories under one per-run work directory.
type scratch struct {
	root string
	n    int
}

func newScratch(outDir string) (*scratch, error) {
	root := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir(name string) string {
	s.n++
	return filepath.Join(s.root, fmt.Sprintf("%s-%d", name, s.n))
}

func (s *scratch) remove() { os.RemoveAll(s.root) }
