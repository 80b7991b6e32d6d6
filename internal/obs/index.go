package obs

import "layeredsg/internal/hindex"

// IndexKind identifies a hash-index event (see internal/hindex and the core
// fast paths layered over it). These are not operations — they annotate how
// point operations resolved — so they aggregate into plain counters instead
// of the per-stripe event rings.
type IndexKind uint8

const (
	// IndexHit: a point operation resolved its node through the index and
	// the reference passed liveness re-verification.
	IndexHit IndexKind = iota
	// IndexMiss: the key had no live index entry; the operation fell back to
	// a descent.
	IndexMiss
	// IndexStale: an entry was found but its node failed liveness
	// re-verification (retired, or its slot was recycled into a new life);
	// the reader pruned it and fell back to a descent.
	IndexStale
	// IndexFallback: an indexed node was resolved but the operation could
	// not complete on it (e.g. it was marked between verification and the
	// linearizing read, or a helper call returned undecided) and restarted
	// as a descent. Recorded in addition to IndexHit.
	IndexFallback
	// IndexPublish: a key→node entry was installed or refreshed.
	IndexPublish
	// IndexUnpublish: an entry was tombstoned (retire observer, non-lazy
	// removal, or reader-side pruning).
	IndexUnpublish

	nIndexKinds = int(IndexUnpublish) + 1
)

// RecordIndex counts one hash-index event. Like operation tracing it is
// gated on Enabled, so a disabled tracer costs one load and branch.
func (t *Tracer) RecordIndex(k IndexKind) {
	if t == nil || !Enabled.Load() {
		return
	}
	t.index[k].Add(1)
}

// IndexSnapshot summarizes the hash index layer's activity and size.
type IndexSnapshot struct {
	// Hits, Misses, Stale, and Fallbacks classify how point operations
	// resolved while tracing was enabled.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stale     uint64 `json:"stale"`
	Fallbacks uint64 `json:"fallbacks"`
	// Publishes and Unpublishes count entry installs and tombstones.
	Publishes   uint64 `json:"publishes"`
	Unpublishes uint64 `json:"unpublishes"`
	// Stats gauges the index's current size: Entries and Slots (live
	// values, independent of Enabled).
	hindex.Stats
}

// indexSnapshot builds the Snapshot section from the event counters and
// the index's size gauge, or nil when the structure runs without a hash
// index.
func (t *Tracer) indexSnapshot(size func() hindex.Stats) *IndexSnapshot {
	s := IndexSnapshot{
		Hits:        t.index[IndexHit].Load(),
		Misses:      t.index[IndexMiss].Load(),
		Stale:       t.index[IndexStale].Load(),
		Fallbacks:   t.index[IndexFallback].Load(),
		Publishes:   t.index[IndexPublish].Load(),
		Unpublishes: t.index[IndexUnpublish].Load(),
	}
	if size == nil {
		if s.Hits == 0 && s.Misses == 0 && s.Publishes == 0 {
			return nil
		}
		return &s
	}
	s.Stats = size()
	return &s
}
