package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"

	"layeredsg/internal/epoch"
	"layeredsg/internal/hindex"
	"layeredsg/internal/node"
	"layeredsg/internal/persist"
	"layeredsg/internal/stats"
)

// The registry tracks every live Tracer and publishes them all under one
// expvar name, so /debug/vars shows the full observability state without
// per-tracer Publish calls (expvar panics on duplicate names, which would
// make tracer-per-trial usage impossible).
var registry struct {
	mu      sync.Mutex
	tracers []*Tracer
	publish sync.Once
}

// expvarName is the single name the registry publishes under.
const expvarName = "layeredsg"

func register(t *Tracer) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	// Uniquify the name so snapshots keyed by name never collide.
	base, n := t.name, 2
	for {
		taken := false
		for _, other := range registry.tracers {
			if other.name == t.name {
				taken = true
				break
			}
		}
		if !taken {
			break
		}
		t.name = fmt.Sprintf("%s#%d", base, n)
		n++
	}
	registry.tracers = append(registry.tracers, t)
	registry.publish.Do(func() {
		expvar.Publish(expvarName, expvar.Func(func() any { return SnapshotAll() }))
	})
}

func unregister(t *Tracer) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for i, other := range registry.tracers {
		if other == t {
			registry.tracers = append(registry.tracers[:i], registry.tracers[i+1:]...)
			return
		}
	}
}

// SnapshotAll snapshots every registered tracer, keyed by name. This is what
// /debug/vars exports under the "layeredsg" variable.
func SnapshotAll() map[string]Snapshot {
	registry.mu.Lock()
	tracers := append([]*Tracer(nil), registry.tracers...)
	registry.mu.Unlock()
	out := make(map[string]Snapshot, len(tracers))
	for _, t := range tracers {
		out[t.name] = t.Snapshot()
	}
	return out
}

// Snapshot is a point-in-time summary of one tracer's metrics.
type Snapshot struct {
	Name    string                `json:"name"`
	Enabled bool                  `json:"enabled"`
	Stripes int                   `json:"stripes"`
	Ops     map[string]OpSnapshot `json:"ops"`
	// Reclaim reports the reclamation pass of a lazy map (nil otherwise).
	// Its counters count from the map's construction, whether or not
	// tracing was enabled.
	Reclaim *ReclaimStats `json:"reclaim,omitempty"`
	// Arena reports node-arena occupancy of the attached structure (nil
	// before one attaches).
	Arena *node.ArenaStats `json:"arena,omitempty"`
	// Epoch reports the epoch domain, when the structure reclaims slots (nil
	// otherwise).
	Epoch *epoch.Stats `json:"epoch,omitempty"`
	// Index summarizes the shared hash index layer, when one is attached
	// (nil otherwise).
	Index *IndexSnapshot `json:"index,omitempty"`
	// WAL reports the write-ahead log's durability counters while a log is
	// attached (nil otherwise).
	WAL *persist.WALStats `json:"wal,omitempty"`
}

// IndexSnapshot is the index section: how traced point operations resolved,
// and the index's own counters and size.
type IndexSnapshot struct {
	// Hits counts traced gets, inserts and removes answered on the node the
	// index resolved (the local-hit origin); Misses counts those that
	// descended instead (local-jump and head). Scans never consult the index.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	hindex.Stats
}

// OpSnapshot summarizes one operation kind.
type OpSnapshot struct {
	Count uint64 `json:"count"`
	// Fails counts operations returning false (absent key, duplicate, ...).
	Fails uint64 `json:"fails"`
	// Origins partitions Count by jump origin (name → count).
	Origins map[string]uint64 `json:"origins"`
	// Visited, CASRetries, Relinks, RelinkNodes, and Deferrals are totals
	// over all operations of this kind.
	Visited     uint64 `json:"visited"`
	CASRetries  uint64 `json:"cas_retries"`
	Relinks     uint64 `json:"relinks"`
	RelinkNodes uint64 `json:"relink_nodes"`
	Deferrals   uint64 `json:"deferrals"`
	// Latency summarizes the kind's wall-clock latency histogram.
	Latency stats.HistogramSnapshot `json:"latency"`
}

// LocalityRate is the fraction of operations that avoided a head descent:
// hash-index hits plus local-structure jumps over all origin-attributed ops.
func (o OpSnapshot) LocalityRate() float64 {
	local := o.Origins[OriginLocalHit.String()] + o.Origins[OriginLocalJump.String()]
	head := o.Origins[OriginHead.String()]
	if local+head == 0 {
		return 0
	}
	return float64(local) / float64(local+head)
}

// Snapshot summarizes the tracer's aggregated metrics. Safe to call while
// operations are being traced.
func (t *Tracer) Snapshot() Snapshot {
	s := Snapshot{Name: t.Name(), Enabled: Enabled.Load(), Ops: map[string]OpSnapshot{}}
	if t == nil {
		return s
	}
	s.Stripes = t.Stripes()
	var src Sources
	if p := t.sources.Load(); p != nil {
		src = *p
	}
	s.Reclaim = section(src.Reclaim)
	s.Arena = section(src.Arena)
	s.Epoch = section(src.Epoch)
	s.WAL = section(src.WAL)
	for k := 1; k < nOpKinds; k++ {
		m := &t.ops[k]
		count := m.count.Load()
		if count == 0 {
			continue
		}
		os := OpSnapshot{
			Count:       count,
			Fails:       m.fails.Load(),
			Origins:     map[string]uint64{},
			Visited:     m.visited.Load(),
			CASRetries:  m.casRetries.Load(),
			Relinks:     m.relinks.Load(),
			RelinkNodes: m.relinkNodes.Load(),
			Deferrals:   m.deferrals.Load(),
			Latency:     m.latency.Snapshot(),
		}
		for o := 1; o < nOrigins; o++ {
			if c := m.origins[o].Load(); c > 0 {
				os.Origins[Origin(o).String()] = c
			}
		}
		s.Ops[OpKind(k).String()] = os
	}
	if src.Index != nil {
		x := IndexSnapshot{Stats: src.Index()}
		for _, k := range []OpKind{OpGet, OpInsert, OpRemove} {
			o := s.Ops[k.String()].Origins
			x.Hits += o[OriginLocalHit.String()]
			x.Misses += o[OriginLocalJump.String()] + o[OriginHead.String()]
		}
		s.Index = &x
	}
	return s
}

// section reads one subsystem section, or nil when the subsystem is absent.
func section[T any](read func() T) *T {
	if read == nil {
		return nil
	}
	v := read()
	return &v
}

// WriteJSON dumps the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText dumps the snapshot as an aligned human-readable table.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "tracer %s (enabled=%v, stripes=%d)\n", s.Name, s.Enabled, s.Stripes); err != nil {
		return err
	}
	if r := s.Reclaim; r != nil {
		if _, err := fmt.Fprintf(w,
			"  reclaim  passes=%d retired=%d freed=%d limbo_depth=%d live_keys=%d slots_per_live_key=%.2f\n",
			r.Passes, r.Retired, r.Freed, r.LimboDepth, r.LiveKeys, r.SlotsPerLiveKey); err != nil {
			return err
		}
	}
	if a := s.Arena; a != nil {
		if _, err := fmt.Fprintf(w,
			"  arena    shards=%d chunks=%d slots_used=%d slots_reserved=%d slots_live=%d slots_free=%d reclaimed=%d reused=%d\n",
			len(a.Shards), a.Chunks, a.SlotsUsed, a.SlotsReserved,
			a.SlotsLive(), a.SlotsFree, a.SlotsReclaimed, a.SlotsReused); err != nil {
			return err
		}
	}
	if e := s.Epoch; e != nil {
		if _, err := fmt.Fprintf(w,
			"  epoch    epoch=%d min_pinned=%d pin_lag=%d seq=%d live_snapshots=%d\n",
			e.Epoch, e.MinPinned, e.PinLag, e.Seq, e.LiveSnapshots); err != nil {
			return err
		}
	}
	if x := s.Index; x != nil {
		if _, err := fmt.Fprintf(w,
			"  index    hits=%d misses=%d publishes=%d unpublishes=%d entries=%d slots=%d\n",
			x.Hits, x.Misses, x.Publishes, x.Unpublishes, x.Entries, x.Slots); err != nil {
			return err
		}
	}
	if l := s.WAL; l != nil {
		if _, err := fmt.Fprintf(w,
			"  wal      fsyncs=%d commits=%d group_commits=%d commit_wait_ns=%d errs=%d\n",
			l.Fsyncs, l.Commits, l.GroupCommits, l.CommitWaitNs, l.Errs); err != nil {
			return err
		}
	}
	kinds := make([]string, 0, len(s.Ops))
	for k := range s.Ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		o := s.Ops[k]
		l := o.Latency
		if _, err := fmt.Fprintf(w,
			"  %-7s count=%d fails=%d locality=%.3f visited=%d cas_retries=%d relinks=%d(chain %d) deferrals=%d\n"+
				"          latency p50=%dns p90=%dns p99=%dns max=%dns mean=%.0fns\n",
			k, o.Count, o.Fails, o.LocalityRate(), o.Visited, o.CASRetries,
			o.Relinks, o.RelinkNodes, o.Deferrals,
			l.P50Ns, l.P90Ns, l.P99Ns, l.MaxNs, l.MeanNs); err != nil {
			return err
		}
		origins := make([]string, 0, len(o.Origins))
		for name := range o.Origins {
			origins = append(origins, name)
		}
		sort.Strings(origins)
		for _, name := range origins {
			if _, err := fmt.Fprintf(w, "          origin %-10s %d\n", name, o.Origins[name]); err != nil {
				return err
			}
		}
	}
	return nil
}
