package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"layeredsg/internal/epoch"
	"layeredsg/internal/hindex"
	"layeredsg/internal/node"
	"layeredsg/internal/persist"
	"layeredsg/internal/stats"
)

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Name labels the tracer in the expvar registry and dumps — typically
	// the algorithm label (e.g. "lazy_layered_sg").
	Name string
}

// Tracer is one map's observability hub: per-stripe event rings plus
// aggregated per-operation metrics. Create one, pass it to the map (via
// core.Config.Tracer or AdapterOptions.Observe), flip Enabled on, and read
// it through Snapshot, Drain, or the /debug endpoints.
//
// A Tracer is registered in the package's expvar registry at creation;
// Close unregisters it (important in tests that create many).
type Tracer struct {
	name  string
	start time.Time

	mu      sync.Mutex
	stripes []*StripeTracer
	cursors []uint64 // per-stripe drain cursors, guarded by mu

	// levels is the attached structure's per-search descent depth
	// (MaxLevel+1); stored atomically because Attach may race with End.
	levels atomic.Int32

	ops [nOpKinds]opMetrics

	// sources, once a map attaches, reads the subsystem sections of
	// snapshots.
	sources atomic.Pointer[Sources]
}

// opMetrics aggregates one operation kind across all stripes. Writers are
// per-stripe but concurrent with each other and with snapshot readers, so
// everything is atomic.
type opMetrics struct {
	count       atomic.Uint64
	fails       atomic.Uint64
	origins     [nOrigins]atomic.Uint64
	visited     atomic.Uint64
	casRetries  atomic.Uint64
	relinks     atomic.Uint64
	relinkNodes atomic.Uint64
	deferrals   atomic.Uint64
	latency     stats.Histogram
}

// NewTracer creates and registers a tracer. Stripe rings are allocated when
// a map attaches (core.New calls Attach with its thread count).
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Name == "" {
		cfg.Name = "layeredsg"
	}
	t := &Tracer{name: cfg.Name, start: time.Now()}
	register(t)
	return t
}

// Name returns the tracer's registry name (uniquified if the requested name
// was taken).
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Close unregisters the tracer from the expvar registry. The tracer remains
// usable; it just stops appearing in /debug/vars.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	unregister(t)
}

// Attach sizes the tracer for a map: one ring per stripe (logical thread)
// and the structure's per-search descent depth. Idempotent; a second attach
// grows the stripe set if needed and keeps existing rings.
func (t *Tracer) Attach(stripes, levelsPerSearch int) {
	if t == nil {
		return
	}
	t.levels.Store(int32(levelsPerSearch))
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.stripes) < stripes {
		i := len(t.stripes)
		t.stripes = append(t.stripes, &StripeTracer{
			t:      t,
			ring:   newRing(ringCapacity),
			stripe: int32(i),
		})
		t.cursors = append(t.cursors, 0)
	}
}

// Sources reads the subsystem sections of a Snapshot from the subsystems'
// own Stats. A nil field means the map runs without that subsystem, and its
// section is omitted.
type Sources struct {
	Arena   func() node.ArenaStats
	Epoch   func() epoch.Stats
	Index   func() hindex.Stats
	Reclaim func() ReclaimStats
	WAL     func() persist.WALStats
}

// ReclaimStats is the health of a lazy map's reclamation pass (internal/core)
// and the reclaim section of a Snapshot. Counters count from the map's
// construction.
type ReclaimStats struct {
	// Passes counts completed reclamation passes.
	Passes uint64 `json:"passes"`
	// Retired counts dead nodes the passes retired (search-time retirements
	// are not counted).
	Retired uint64 `json:"retired"`
	// Freed counts arena slots the passes returned to the free lists.
	Freed uint64 `json:"freed"`
	// LimboDepth is the number of retired nodes awaiting their free.
	LimboDepth int64 `json:"limbo_depth"`
	// LiveKeys is the live-key count the pass trigger keeps: successful
	// inserts minus successful removes, plus a bulk load's keys.
	LiveKeys int64 `json:"live_keys"`
	// SlotsPerLiveKey is occupied arena slots over LiveKeys (0 when no key
	// is live).
	SlotsPerLiveKey float64 `json:"slots_per_live_key"`
}

// SetSources installs the subsystem readers (core.New calls it once the
// map's subsystems exist, and again when a write-ahead log attaches). A
// later call replaces them; a nil tracer ignores the call.
func (t *Tracer) SetSources(src Sources) {
	if t == nil {
		return
	}
	t.sources.Store(&src)
}

// Stripe returns stripe i's tracer, or nil when the tracer is nil or the
// stripe was never attached. A nil *StripeTracer is a valid no-op receiver,
// which is how untraced maps run.
func (t *Tracer) Stripe(i int) *StripeTracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < 0 || i >= len(t.stripes) {
		return nil
	}
	return t.stripes[i]
}

// Stripes returns the number of attached stripes.
func (t *Tracer) Stripes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stripes)
}

// Drain returns every event recorded since the previous Drain, across all
// stripes, in per-stripe order. Events that wrapped out of a ring before
// this call are lost (Seq gaps reveal how many).
func (t *Tracer) Drain() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for i, st := range t.stripes {
		out, t.cursors[i] = st.ring.ReadSince(t.cursors[i], out)
	}
	return out
}

// StripeTracer traces one stripe's operations. Like the Handle it shadows,
// it is exclusively owned by whoever holds the stripe, so its scratch fields
// need no synchronization; the ring it publishes into is safe for concurrent
// readers. A nil *StripeTracer ignores every call.
type StripeTracer struct {
	t      *Tracer
	ring   *Ring
	stripe int32

	// Current-op scratch, confined to the stripe owner.
	active bool
	kind   OpKind
	origin Origin
	t0     time.Time
	c0     stats.OpCounters
}

// Begin opens a traced operation of the given kind. It is a no-op (and
// allocation-free) when the receiver is nil or Enabled is off. The origin
// defaults to OriginLocalHit; slow paths override it via SetOrigin.
func (st *StripeTracer) Begin(kind OpKind, tr *stats.ThreadRecorder) {
	if st == nil {
		return
	}
	if !Enabled.Load() {
		st.active = false
		return
	}
	st.active = true
	st.kind = kind
	st.origin = OriginLocalHit
	st.c0 = tr.Counters()
	st.t0 = time.Now()
}

// Active reports whether the current operation is being traced — use it to
// skip argument preparation (key squeezing) on the disabled path.
func (st *StripeTracer) Active() bool { return st != nil && st.active }

// SetOrigin records where the operation entered the shared structure.
func (st *StripeTracer) SetOrigin(o Origin) {
	if st == nil || !st.active {
		return
	}
	st.origin = o
}

// End closes the traced operation: computes the per-op counter deltas,
// publishes the event to the stripe's ring, and folds the operation into
// the tracer's aggregated metrics.
func (st *StripeTracer) End(tr *stats.ThreadRecorder, key uint64, ok bool) {
	if st == nil || !st.active {
		return
	}
	st.active = false
	lat := time.Since(st.t0)
	d := tr.Counters().Sub(st.c0)
	levels := d.Searches * uint64(st.t.levels.Load())
	e := Event{
		Stripe:      st.stripe,
		Kind:        st.kind,
		Origin:      st.origin,
		Ok:          ok,
		Key:         key,
		StartNs:     st.t0.Sub(st.t.start).Nanoseconds(),
		LatencyNs:   lat.Nanoseconds(),
		Searches:    clamp16(d.Searches),
		Levels:      clamp16(levels),
		Visited:     clamp32(d.Visited),
		CASRetries:  clamp16(d.CASFail),
		RelinkNodes: clamp16(d.RelinkNodes),
		Deferrals:   clamp16(d.Deferrals),
	}
	st.ring.put(&e)

	m := &st.t.ops[st.kind]
	m.count.Add(1)
	if !ok {
		m.fails.Add(1)
	}
	m.origins[st.origin].Add(1)
	m.visited.Add(d.Visited)
	m.casRetries.Add(d.CASFail)
	m.relinks.Add(d.Relinks)
	m.relinkNodes.Add(d.RelinkNodes)
	m.deferrals.Add(d.Deferrals)
	m.latency.Record(lat.Nanoseconds())
}
