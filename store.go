package layeredsg

import (
	"cmp"
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"layeredsg/internal/core"
	"layeredsg/internal/obs"
	"layeredsg/internal/stats"
)

// Store is a goroutine-safe facade over a layered map: any goroutine may
// call it, at any time, without owning a Handle. It is implemented as a
// *handle-leasing layer* — a striped pool holding the map's confined
// per-thread Handles, one stripe per pinned logical thread. Each operation
// leases a stripe's handle exclusively for its duration, so the layered
// design's confinement invariant (sequential local structures) is preserved;
// the stripe a goroutine leases is biased by a P-affine placement hint, so a
// goroutine tends to reuse the handle whose membership vector matches its
// scheduler placement, preserving the NUMA-locality story.
//
// Store is the convenient path; confined Handles remain the fast path. Use
// Store when goroutines come and go freely (request serving); use
// Map.Handle when you control worker identity and can pin one handle per
// worker. Amortize leasing over several operations with Do, Acquire, or the
// batch operations.
type Store[K cmp.Ordered, V any] struct {
	m       *Map[K, V]
	stripes []storeStripe[K, V]
	lr      *stats.LeaseRecorder
	// hints is a pool of stripe-affinity hints. sync.Pool keeps per-P local
	// caches, so a goroutine tends to get back the hint last released on its
	// current P — the "cheap CPU hint" that biases lease acquisition without
	// any runtime internals.
	hints sync.Pool
	// next deals initial stripe hints round-robin so cold Ps spread out.
	next atomic.Uint32
	// erased is the reclamation generation (core.ReclaimGen) up to which
	// the idle stripes erased the local entries of freed nodes.
	erased atomic.Uint64

	// closeMu serializes Close calls; closing bounces new leases as soon as
	// a Close begins; closed marks shutdown complete. closed is only ever
	// set while Close holds every stripe lock, so a lease that won its
	// stripe lock before Close can never observe it flip mid-lease.
	closeMu sync.Mutex
	closing atomic.Bool
	closed  atomic.Bool
}

// storeStripe pairs one confined handle with its lease lock, padded to a
// 128-byte stride so contended stripe locks neither share a cache line nor
// get coupled by the adjacent-line prefetcher.
type storeStripe[K cmp.Ordered, V any] struct {
	mu sync.Mutex
	h  *core.Handle[K, V]
	// labels carries the stripe's pprof goroutine labels
	// (layeredsg_stripe=<i>), applied for the span of a lease while the
	// observability layer is enabled, so CPU and block profiles attribute
	// samples to stripes. labels is the precomputed Background-based context
	// for unlabeled callers; labelSet composes the same labels onto a
	// caller-supplied context (DoContext/AcquireContext).
	labels   context.Context
	labelSet pprof.LabelSet
	// leasedGen is the reclamation generation (core.ReclaimGen) the
	// stripe's last lease ended in: eraseIdle leaves alone a stripe leased
	// in the current or the previous generation, whose owner erases its own
	// entries and whose next lease a try-lock could push to another stripe.
	leasedGen atomic.Uint64
	_         [128]byte //nolint:unused
}

// stripeHint carries a goroutine's preferred stripe between leases, plus the
// label state of the current lease: whether stripe labels were applied (so
// release restores even if obs.Enabled flipped mid-lease) and the caller's
// labeled context to restore on release (nil means no caller labels).
type stripeHint struct {
	idx     int
	labeled bool
	base    context.Context
}

// NewStore builds a layered map and wraps it in a goroutine-safe Store. The
// configuration is the same as New's; the machine's thread count sets the
// stripe count.
func NewStore[K cmp.Ordered, V any](cfg Config) (*Store[K, V], error) {
	m, err := New[K, V](cfg)
	if err != nil {
		return nil, err
	}
	threads := m.Threads()
	s := &Store[K, V]{
		m:       m,
		stripes: make([]storeStripe[K, V], threads),
		lr:      stats.NewLeaseRecorder(threads),
	}
	for t := 0; t < threads; t++ {
		s.stripes[t].h = m.Handle(t)
		s.stripes[t].labelSet = pprof.Labels("layeredsg_stripe", strconv.Itoa(t))
		s.stripes[t].labels = pprof.WithLabels(context.Background(), s.stripes[t].labelSet)
	}
	s.hints.New = func() any {
		return &stripeHint{idx: int(s.next.Add(1)-1) % threads}
	}
	return s, nil
}

// Map exposes the underlying layered map for inspection (Len, Keys, Kind,
// SharedStructure). Do not use Map().Handle while the Store is live — the
// Store owns every handle, and concurrent use trips the confinement
// assertion.
func (s *Store[K, V]) Map() *Map[K, V] { return s.m }

// Stripes returns the number of handle stripes (= the machine's threads).
func (s *Store[K, V]) Stripes() int { return len(s.stripes) }

// LeaseStats snapshots the per-stripe lease-contention counters: fast-path
// hits on the preferred stripe, migrations to other free stripes, and
// acquisitions that blocked with every stripe busy.
func (s *Store[K, V]) LeaseStats() LeaseSummary { return s.lr.Summary() }

// acquire leases a stripe for a caller with no labeled context.
func (s *Store[K, V]) acquire() (int, *stripeHint) {
	return s.acquireCtx(nil)
}

// acquireCtx leases a stripe: try the P-affine preferred stripe, then one
// try-lock pass over the remaining stripes, then block on the preferred
// stripe (sync.Mutex handles the wakeup, so no lease is ever lost). It
// returns the leased stripe and the hint to return on release. ctx carries
// the caller's pprof labels (nil for none); it is not used for cancellation.
func (s *Store[K, V]) acquireCtx(ctx context.Context) (int, *stripeHint) {
	if s.closing.Load() {
		panic("layeredsg: operation on closed Store")
	}
	hint := s.hints.Get().(*stripeHint)
	n := len(s.stripes)
	i := hint.idx
	if s.stripes[i].mu.TryLock() {
		s.lr.Hit(i)
		s.beginLease(i, hint, ctx)
		return i, hint
	}
	for k := 1; k < n; k++ {
		j := i + k
		if j >= n {
			j -= n
		}
		if s.stripes[j].mu.TryLock() {
			s.lr.Migrate(j)
			hint.idx = j // affinity follows the migration
			s.beginLease(j, hint, ctx)
			return j, hint
		}
	}
	s.lr.Block(i)
	s.stripes[i].mu.Lock()
	// The blocking path may have waited out an entire Close (a lease that
	// won its lock before Close began, by contrast, delays Close instead and
	// can never observe closed flip: Close sets it only while holding every
	// stripe lock).
	if s.closed.Load() {
		s.stripes[i].mu.Unlock()
		panic("layeredsg: operation on closed Store")
	}
	s.beginLease(i, hint, ctx)
	return i, hint
}

// Close shuts the Store down: it stops admitting new leases, waits for every
// outstanding lease to be released and every open Snapshot to be closed,
// then closes the underlying map, which closes its write-ahead log and does
// no reclamation work. A Close with a live snapshot blocks until that
// snapshot's Close —
// release snapshots before shutting down. Close is idempotent (concurrent
// calls block until the first completes) and the contract afterwards is
// strict: any operation, batch, Do, Acquire, or Snapshot on a closed Store
// panics with "operation on closed Store". Operations concurrent with Close
// either complete normally (their lease was won first, delaying Close) or
// panic; none are silently dropped.
func (s *Store[K, V]) Close() {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return
	}
	s.closing.Store(true)
	// Sweep every stripe lock: returns only once all outstanding leases are
	// released, and holds the pool exclusively while the map shuts down.
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	s.m.Close()
	s.closed.Store(true)
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// beginLease asserts confinement and, while the observability layer is on,
// labels the leasing goroutine with its stripe so profiles taken through
// /debug/pprof attribute samples per stripe. When the caller supplied its
// labeled context (DoContext/AcquireContext), the stripe label is composed
// onto the caller's labels and release restores them; without one, labeling
// replaces whatever labels the goroutine held (pprof offers no way to read
// them back) and release clears to the empty label set.
func (s *Store[K, V]) beginLease(i int, hint *stripeHint, ctx context.Context) {
	s.stripes[i].h.BeginExclusive()
	if obs.Enabled.Load() {
		if ctx == nil {
			pprof.SetGoroutineLabels(s.stripes[i].labels)
		} else {
			hint.base = ctx
			pprof.SetGoroutineLabels(pprof.WithLabels(ctx, s.stripes[i].labelSet))
		}
		hint.labeled = true
	}
}

// release ends a lease taken by acquire, restoring the caller's goroutine
// labels (or the empty label set for unlabeled callers).
func (s *Store[K, V]) release(i int, hint *stripeHint) {
	if hint.labeled {
		hint.labeled = false
		base := hint.base
		hint.base = nil
		if base == nil {
			base = context.Background()
		}
		pprof.SetGoroutineLabels(base)
	}
	g := core.ReclaimGen(s.m)
	s.stripes[i].leasedGen.Store(g)
	s.stripes[i].h.EndExclusive()
	s.stripes[i].mu.Unlock()
	s.hints.Put(hint)
	if g > s.erased.Load() {
		s.eraseIdle(g)
	}
}

// eraseIdle erases the local entries of freed nodes in every stripe no
// lease has held for a whole reclamation generation, once per generation.
// A goroutine changes stripes whenever its hint is lost (the pool is
// emptied at every GC), and a stripe nobody leases again would keep an
// entry for every node the passes freed.
func (s *Store[K, V]) eraseIdle(g uint64) {
	if old := s.erased.Load(); old >= g || !s.erased.CompareAndSwap(old, g) {
		return
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		if st.leasedGen.Load()+1 >= g || s.closing.Load() || !st.mu.TryLock() {
			continue
		}
		st.h.BeginExclusive()
		core.EraseFreed(st.h)
		st.h.EndExclusive()
		st.mu.Unlock()
	}
}

// Get returns the value stored under key.
func (s *Store[K, V]) Get(key K) (V, bool) {
	i, hint := s.acquire()
	defer s.release(i, hint)
	return s.stripes[i].h.Get(key)
}

// Contains reports whether key is logically present.
func (s *Store[K, V]) Contains(key K) bool {
	i, hint := s.acquire()
	defer s.release(i, hint)
	return s.stripes[i].h.Contains(key)
}

// Insert adds key → value, returning false if the key is already present
// (set semantics, like Handle.Insert).
func (s *Store[K, V]) Insert(key K, value V) bool {
	i, hint := s.acquire()
	defer s.release(i, hint)
	return s.stripes[i].h.Insert(key, value)
}

// Remove deletes key, returning false if it was not present.
func (s *Store[K, V]) Remove(key K) bool {
	i, hint := s.acquire()
	defer s.release(i, hint)
	return s.stripes[i].h.Remove(key)
}

// RangeScan visits logically present entries with from <= key <= to in
// ascending key order until fn returns false.
//
// On lazy variants (the default LazyLayeredSG among them) the scan runs on
// an ephemeral Snapshot: it observes a single consistent point in time —
// exactly the mutations stamped before it, none after. Non-lazy variants
// have no snapshots, so it falls back to Handle.Ascend's weakly consistent
// traversal under one lease, where entries mutated concurrently with the
// scan may or may not be observed.
func (s *Store[K, V]) RangeScan(from, to K, fn func(key K, value V) bool) {
	if s.m.Domain() != nil {
		snap, err := s.Snapshot()
		if err == nil {
			defer snap.Close()
			snap.AscendFrom(from, func(k K, v V) bool {
				if to < k {
					return false
				}
				return fn(k, v)
			})
			return
		}
	}
	i, hint := s.acquire()
	defer s.release(i, hint)
	s.stripes[i].h.Ascend(from, func(k K, v V) bool {
		if to < k {
			return false
		}
		return fn(k, v)
	})
}

// Snapshot acquires a consistent point-in-time view of the map (see
// core.Snapshot): it observes exactly the mutations stamped at or below its
// sequence, regardless of concurrent writers. Snapshots are only available
// on lazy variants (the default LazyLayeredSG among them); non-lazy variants
// return an error.
//
// Close every snapshot promptly: an open snapshot freezes slot reclamation,
// and Store.Close blocks until the last open snapshot is closed.
func (s *Store[K, V]) Snapshot() (*Snapshot[K, V], error) {
	if s.closing.Load() {
		panic("layeredsg: operation on closed Store")
	}
	return s.m.Snapshot()
}

// InsertBatch inserts keys[j] → values[j] for every j under a single lease,
// amortizing acquisition over the batch. It returns the number of keys
// actually inserted (present keys are skipped, as in Insert) and errors only
// on a length mismatch.
func (s *Store[K, V]) InsertBatch(keys []K, values []V) (int, error) {
	if len(keys) != len(values) {
		return 0, fmt.Errorf("layeredsg: InsertBatch length mismatch: %d keys, %d values", len(keys), len(values))
	}
	i, hint := s.acquire()
	defer s.release(i, hint)
	h := s.stripes[i].h
	inserted := 0
	for j, k := range keys {
		if h.Insert(k, values[j]) {
			inserted++
		}
	}
	return inserted, nil
}

// GetBatch looks up every key under a single lease, returning parallel
// value/found slices.
func (s *Store[K, V]) GetBatch(keys []K) ([]V, []bool) {
	values := make([]V, len(keys))
	found := make([]bool, len(keys))
	i, hint := s.acquire()
	defer s.release(i, hint)
	h := s.stripes[i].h
	for j, k := range keys {
		values[j], found[j] = h.Get(k)
	}
	return values, found
}

// Do runs fn with an exclusively leased handle — a session amortizing one
// lease over arbitrarily many operations. fn must not retain the handle
// after returning.
func (s *Store[K, V]) Do(fn func(h *Handle[K, V])) {
	i, hint := s.acquire()
	defer s.release(i, hint)
	fn(s.stripes[i].h)
}

// DoContext is Do for goroutines that carry pprof labels: ctx must be the
// context whose labels the calling goroutine currently wears (set via
// pprof.SetGoroutineLabels or pprof.Do). While the observability layer is
// enabled, the lease composes its stripe label onto ctx's labels and restores
// exactly ctx's labels on release — unlike Do, which cannot know the caller's
// labels and clears them. ctx is not used for cancellation.
func (s *Store[K, V]) DoContext(ctx context.Context, fn func(h *Handle[K, V])) {
	i, hint := s.acquireCtx(ctx)
	defer s.release(i, hint)
	fn(s.stripes[i].h)
}

// Lease is an explicitly managed session: an exclusive hold on one stripe's
// handle. Acquire/Release bracket arbitrary multi-operation sequences where
// a callback (Do) is inconvenient. A Lease must be released exactly once and
// must not be shared between goroutines.
type Lease[K cmp.Ordered, V any] struct {
	s      *Store[K, V]
	stripe int
	hint   *stripeHint
	h      *core.Handle[K, V]
}

// Acquire leases a handle until Release is called. Prefer Do when a callback
// fits.
func (s *Store[K, V]) Acquire() *Lease[K, V] {
	i, hint := s.acquire()
	return &Lease[K, V]{s: s, stripe: i, hint: hint, h: s.stripes[i].h}
}

// AcquireContext is Acquire for goroutines that carry pprof labels; see
// DoContext for the contract on ctx.
func (s *Store[K, V]) AcquireContext(ctx context.Context) *Lease[K, V] {
	i, hint := s.acquireCtx(ctx)
	return &Lease[K, V]{s: s, stripe: i, hint: hint, h: s.stripes[i].h}
}

// Handle returns the leased handle. It panics after Release.
func (l *Lease[K, V]) Handle() *Handle[K, V] {
	if l.h == nil {
		panic("layeredsg: Lease.Handle after Release")
	}
	return l.h
}

// Stripe returns the leased stripe's index (= the handle's logical thread).
func (l *Lease[K, V]) Stripe() int { return l.stripe }

// Release returns the handle to the pool. It panics on double release.
func (l *Lease[K, V]) Release() {
	if l.h == nil {
		panic("layeredsg: Lease released twice")
	}
	l.h = nil
	l.s.release(l.stripe, l.hint)
}

// LeaseSummary aggregates a Store's lease-contention counters; see
// Store.LeaseStats.
type LeaseSummary = stats.LeaseSummary

// StripeLeaseStats is one stripe's share of a LeaseSummary.
type StripeLeaseStats = stats.StripeLeaseStats
