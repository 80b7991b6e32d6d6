package stats

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"layeredsg/internal/numa"
)

// LatencyModel charges a simulated NUMA *penalty* on instrumented accesses:
// the cost of reaching another node's memory over the interconnect, beyond
// the (assumed cached or local) cost of a same-node access. The penalty is
// proportional to the distance excess over the local distance, in numactl
// units — on the paper machine (10 local, 21 remote) a remote access pays
// 11 × the per-distance cost and a local access pays nothing.
//
// This is the performance half of the NUMA substitution: the counting half
// (local/remote classification) reproduces the paper's Table 1 and heatmaps,
// and the penalty makes the same access streams show up in wall-clock
// throughput, which is what the paper's ops/ms figures measure on real
// hardware. Without it, a host with no NUMA (or fewer cores than simulated
// threads) prices remote and local accesses identically, and every
// locality-driven design loses its edge by construction. Same-node accesses
// are deliberately free: a thread's partition stays hot in its own cache
// hierarchy — the very effect the layered design exploits — and the
// cache-behaviour part of the evaluation is modelled separately by
// internal/cachesim (Table 2).
//
// Penalties are charged by calibrated busy-spinning, not sleeping: the
// granularity is tens of nanoseconds, three orders of magnitude below what
// timers can deliver.
type LatencyModel struct {
	// ReadPenaltyPerDistance is the cost of one shared read per unit of NUMA
	// distance beyond local (remote read on the paper machine: 11 units).
	ReadPenaltyPerDistance time.Duration
	// CASPenaltyPerDistance is the analogous cost of one CAS. CAS is dearer
	// than a read on real hardware: it takes the cache line exclusively and
	// stalls the coherence protocol.
	CASPenaltyPerDistance time.Duration
}

// DefaultLatencyModel approximates the paper machine: a remote read
// (distance 21 vs. local 10, 11 units of excess) costs ~130 ns extra, and a
// remote CAS ~1.65 µs. The CAS figure models the *effective* cost of an
// atomic on another socket's line under a concurrent workload — exclusive
// ownership transfer plus the coherence ping-pong the paper's contended
// scenarios exhibit — which on 2-socket Xeons is measured in microseconds,
// not in a single interconnect round-trip.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		ReadPenaltyPerDistance: 12 * time.Nanosecond,
		CASPenaltyPerDistance:  150 * time.Nanosecond,
	}
}

var (
	calibrateOnce sync.Once
	itersPerNano  float64
	spinSink      atomic.Uint64
)

// spin burns approximately n loop iterations.
//
//go:noinline
func spin(n int32) {
	acc := uint64(0)
	for i := int32(0); i < n; i++ {
		acc += uint64(i)
	}
	if acc == ^uint64(0) {
		spinSink.Add(1)
	}
}

// calibrate measures how many spin iterations one nanosecond buys on this
// host. Called lazily the first time a latency model is attached.
func calibrate() {
	calibrateOnce.Do(func() {
		const probe = 4 << 20
		start := time.Now()
		spin(probe)
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		itersPerNano = float64(probe) / float64(elapsed.Nanoseconds())
		if itersPerNano < 0.05 {
			itersPerNano = 0.05
		}
	})
}

// spinTable precomputes spin iterations per owner NUMA node for one
// accessing thread: zero for the thread's own node, distance-excess scaled
// for the rest.
func spinTable(topo *numa.Topology, myNode int, per time.Duration) []int32 {
	local := topo.Distance(myNode, myNode)
	out := make([]int32, topo.Nodes())
	for n := range out {
		excess := topo.Distance(myNode, n) - local
		if excess <= 0 {
			continue
		}
		ns := float64(excess) * float64(per.Nanoseconds())
		out[n] = int32(ns * itersPerNano)
	}
	return out
}

// SetLatency attaches a latency model to every thread recorder. Call before
// handing recorders to workers; not safe to call concurrently with recording.
func (r *Recorder) SetLatency(model LatencyModel) {
	calibrate()
	topo := r.machine.Topology()
	for _, tr := range r.trs {
		tr.readSpin = spinTable(topo, tr.node, model.ReadPenaltyPerDistance)
		tr.casSpin = spinTable(topo, tr.node, model.CASPenaltyPerDistance)
	}
}

// ---------------------------------------------------------------------------
// Latency histograms
//
// The spin model above *injects* NUMA latency; the histogram below *measures*
// latency. Together they are the package's two latency halves: trials charge
// simulated interconnect cost per access, and the observability layer
// (internal/obs) records where each operation's wall-clock time actually
// went, per algorithm and operation kind.

// histBuckets covers 0 ns .. ~18 minutes. Values below 32 get their own
// bucket; above that, each power of two is split into 16 linear sub-buckets
// (HDR-histogram style), bounding the relative recording error at 1/16.
const (
	histSubBuckets = 16
	histMaxExp     = 35 // clamp values at 16·2^35 ns ≈ 9.2 min
	histBuckets    = 2*histSubBuckets + histSubBuckets*histMaxExp
)

// histBucketOf maps a non-negative duration in nanoseconds to its bucket.
func histBucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	u := uint64(ns)
	if u < 2*histSubBuckets {
		return int(u)
	}
	e := bits.Len64(u) - 5 // u>>e lands in [16,32)
	if e > histMaxExp {
		return histBuckets - 1
	}
	return histSubBuckets*e + int(u>>uint(e))
}

// histBucketValue returns a representative (midpoint) value for a bucket,
// the inverse of histBucketOf up to sub-bucket resolution.
func histBucketValue(idx int) int64 {
	if idx < 2*histSubBuckets {
		return int64(idx)
	}
	// Invert histBucketOf: idx = histSubBuckets·e + u>>e with u>>e in
	// [16,32), so idx/histSubBuckets is e+1, not e.
	e := idx/histSubBuckets - 1
	sub := uint64(idx % histSubBuckets)
	lo := (histSubBuckets + sub) << uint(e)
	return int64(lo + (uint64(1)<<uint(e))/2)
}

// Histogram is an HDR-style latency histogram: recording is one atomic add
// into a log-linear bucket, safe from any goroutine, allocation-free, and
// mergeable. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Record adds one sample (nanoseconds; negatives clamp to zero).
func (h *Histogram) Record(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[histBucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	for {
		old := h.max.Load()
		if uint64(ns) <= old || h.max.CompareAndSwap(old, uint64(ns)) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time summary of a Histogram.
type HistogramSnapshot struct {
	Count  uint64
	MeanNs float64
	MaxNs  int64
	P50Ns  int64
	P90Ns  int64
	P99Ns  int64
	P999Ns int64
}

// Snapshot summarizes the histogram. Safe to call while samples are being
// recorded; the snapshot as a whole is not atomic (quantiles may reflect a
// slightly different sample set than Count).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s.Count = total
	s.MaxNs = int64(h.max.Load())
	if total == 0 {
		return s
	}
	s.MeanNs = float64(h.sum.Load()) / float64(total)
	quantile := func(q float64) int64 {
		target := uint64(q * float64(total))
		if target >= total {
			target = total - 1
		}
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum > target {
				return histBucketValue(i)
			}
		}
		return s.MaxNs
	}
	s.P50Ns = quantile(0.50)
	s.P90Ns = quantile(0.90)
	s.P99Ns = quantile(0.99)
	s.P999Ns = quantile(0.999)
	return s
}
