package layeredsg

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"layeredsg/internal/core"
	"layeredsg/internal/obs"
	"layeredsg/internal/persist"
)

// Persistence: snapshot-backed dumps, parallel loads, and write-ahead-log
// recovery. See internal/persist for the file formats and DESIGN.md §10 for
// the crash-consistency contract.

// DumpStats summarizes a completed StoreToDisk.
type DumpStats = persist.DumpStats

// LoadStats summarizes a completed LoadFromDisk: base-load volume, the dump's
// source topology and snapshot sequence, and WAL replay depth.
type LoadStats = persist.LoadStats

// WALSyncPolicy selects when the write-ahead log fsyncs; see Config.WALSync
// and DESIGN.md §10's durability-contract table.
type WALSyncPolicy = persist.SyncPolicy

var (
	// SyncNever buffers WAL appends; fsync happens only on Close, Prune,
	// and after dumps. Barrier promises the flushed prefix only (survives a
	// process crash, not an OS crash). The default.
	SyncNever = persist.SyncNever
	// SyncEvery flushes and fsyncs the WAL on every append — maximal
	// durability, one fsync per mutation.
	SyncEvery = persist.SyncEvery
	// SyncGroup fsyncs on Barrier/Commit acknowledgment, batching
	// concurrent acknowledgers into one fsync (group commit).
	SyncGroup = persist.SyncGroup
)

// SyncInterval returns the WAL policy that fsyncs from a background flusher
// every d, bounding the un-durable window without an fsync on any hot path.
func SyncInterval(d time.Duration) WALSyncPolicy { return persist.SyncInterval(d) }

// ParseWALSyncPolicy parses a policy label — "never", "every", "group",
// "interval" (the default period), or "interval:<duration>" — for flag and
// config surfaces (cmd/sgbench's -wal-sync).
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return persist.ParseSyncPolicy(s) }

// Barrier blocks until every mutation acknowledged before the call is
// durable in the store's write-ahead log, per Config.WALSync: a real fsync
// under SyncEvery, SyncGroup, and SyncInterval — concurrent Barriers share
// one fsync (group commit) — and a flush to the OS under SyncNever. The
// barrier covers the calling goroutine's completed operations; it does not
// wait for mutations still in flight on other goroutines. A store without a
// WAL returns nil immediately. The error, when non-nil, is the journal's
// sticky I/O error: the mutations are applied in memory but their records
// may not survive a crash.
func (s *Store[K, V]) Barrier() error {
	if s.closing.Load() {
		panic("layeredsg: operation on closed Store")
	}
	return s.m.Barrier()
}

// Err returns the persistence layer's sticky I/O error, if any, without
// waiting for Close: a failing write-ahead log drops records silently at
// the stamp sites (which cannot propagate errors), so long-running servers
// should poll Err (or the obs wal_errs counter) as a health check. Nil when
// no WAL is configured or the journal is healthy.
func (s *Store[K, V]) Err() error { return s.m.WALErr() }

// StoreToDisk dumps a consistent snapshot of the store into dir as a set of
// shard files written in parallel — one writer per maintenance helper (or per
// socket, when maintenance is inline). The dump holds a Snapshot ticket for
// its duration: concurrent writers proceed normally (mutations stamped after
// the snapshot's sequence are excluded from the dump — and journaled by the
// WAL, when one is configured), while Close blocks until the dump finishes,
// exactly as it blocks on any open snapshot. When the store has a WAL, the
// log is pruned afterwards: records the dump's snapshot already covers are
// dropped.
//
// A failed dump leaves any previous dump in dir untouched. The shard count is
// a property of the dumping machine only — LoadFromDisk rebuilds under
// whatever machine its own Config names.
func (s *Store[K, V]) StoreToDisk(dir string) (DumpStats, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return DumpStats{}, err
	}
	defer snap.Close()
	m := s.m
	shards := m.Machine().Topology().Sockets()
	if eng := m.Maintenance(); eng != nil {
		shards = eng.Helpers()
	}
	stats, err := persist.Dump[K, V](dir, snap.Ascend, persist.DumpOptions{
		Shards:  shards,
		Topo:    persistTopology(m.Machine()),
		BaseSeq: snap.Seq(),
		Lineage: m.Domain().Lineage(),
		Tracer:  m.Tracer(),
	})
	if err != nil {
		return stats, err
	}
	if w, ok := m.MutationSink().(*persist.WAL[K, V]); ok {
		if err := w.Prune(snap.Seq()); err != nil {
			return stats, fmt.Errorf("layeredsg: pruning WAL after dump: %w", err)
		}
	}
	return stats, nil
}

// LoadFromDisk rebuilds a store from a StoreToDisk dump. cfg configures the
// loading machine exactly as NewStore would — the dump carries no layout:
// shard readers feed records through the striped insert path in parallel, so
// arena placement, packed level references, hash-index entries, and
// membership vectors are re-derived for cfg.Machine, which need not resemble
// the machine that dumped.
//
// When cfg.WAL is set, recovery continues past the dump: the log's torn tail
// (a crashed append) is detected and physically truncated, records stamped
// after the dump's snapshot are replayed in sequence order, and the rebuilt
// store keeps journaling into the same log and sequence space. A log from a
// different sequence space fails closed (ErrWALMismatch); a missing log file
// starts a fresh one (the dump alone defines the state).
//
// Every other failure — truncation, checksum mismatch, version or type skew,
// an incomplete shard set — fails closed with a typed error from
// internal/persist and no store: the partially rebuilt store is closed before
// returning. The returned LoadStats is best-effort on error.
func LoadFromDisk[K cmp.Ordered, V any](dir string, cfg Config) (*Store[K, V], LoadStats, error) {
	walDir := cfg.WAL
	// Build the store logless: base load and replay re-apply mutations the
	// dump and log already hold, and must not re-journal them. The sink
	// attaches after recovery, once the domain has adopted the persisted
	// sequence space.
	cfg.WAL = ""
	st, err := NewStore[K, V](cfg)
	if err != nil {
		return nil, LoadStats{}, err
	}
	fail := func(stats LoadStats, err error) (*Store[K, V], LoadStats, error) {
		st.Close()
		return nil, stats, err
	}
	if walDir != "" && st.m.Domain() == nil {
		return fail(LoadStats{}, fmt.Errorf("layeredsg: %s supports no WAL (requires a lazy variant)", cfg.Kind))
	}
	workers := st.m.Machine().Topology().Sockets()
	if eng := st.m.Maintenance(); eng != nil {
		workers = eng.Helpers()
	}
	stats, err := persist.Load[K, V](dir, func(keys []K, values []V) error {
		_, err := st.InsertBatch(keys, values)
		return err
	}, persist.LoadOptions{Workers: workers, Tracer: st.m.Tracer()})
	if err != nil {
		return fail(stats, err)
	}

	d := st.m.Domain()
	maxSeq := stats.BaseSeq
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fail(stats, fmt.Errorf("layeredsg: creating WAL dir: %w", err))
		}
		path := filepath.Join(walDir, persist.WALFileName)
		wopts := persist.WALOptions{Sync: cfg.WALSync, Tracer: st.m.Tracer()}
		w, recs, rstats, err := persist.OpenWAL[K, V](path, stats.Lineage, wopts)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			if w, err = persist.CreateWAL[K, V](path, stats.Lineage, wopts); err != nil {
				return fail(stats, err)
			}
		case err != nil:
			return fail(stats, err)
		default:
			replayed := replayWAL(st, recs, stats.BaseSeq, &maxSeq)
			stats.WALReplayed = replayed
			stats.WALDiscardedBytes = uint64(rstats.DiscardedBytes)
			st.m.Tracer().RecordPersist(obs.PersistWALReplay, replayed)
			st.m.Tracer().RecordPersist(obs.PersistWALDiscard, stats.WALDiscardedBytes)
		}
		// Adopt the persisted sequence space before attaching the sink, so
		// every stamp journaled from here on is comparable with — and ordered
		// after — everything already on disk.
		d.AdoptLineage(stats.Lineage)
		d.AdvanceSeq(maxSeq)
		st.m.SetMutationSink(w)
	} else if d != nil {
		d.AdoptLineage(stats.Lineage)
		d.AdvanceSeq(stats.BaseSeq)
	}
	return st, stats, nil
}

// replayWAL applies the log's post-snapshot suffix over the base load: filter
// to seq > baseSeq, sort by seq (per-key order is already stamp order; the
// sort makes it global), apply under one lease. maxSeq is raised to the
// highest stamp seen in the whole log, replayed or not, so the domain can
// advance past it.
func replayWAL[K cmp.Ordered, V any](st *Store[K, V], recs []persist.WALRecord[K, V], baseSeq uint64, maxSeq *uint64) uint64 {
	replay := recs[:0]
	for _, r := range recs {
		if r.Seq > *maxSeq {
			*maxSeq = r.Seq
		}
		if r.Seq > baseSeq {
			replay = append(replay, r)
		}
	}
	sort.SliceStable(replay, func(i, j int) bool { return replay[i].Seq < replay[j].Seq })
	var n uint64
	st.Do(func(h *Handle[K, V]) {
		for _, r := range replay {
			switch r.Op {
			case persist.WALInsert:
				h.Insert(r.Key, r.Value)
			case persist.WALRemove:
				h.Remove(r.Key)
			}
			n++
		}
	})
	return n
}

// attachFreshWAL opens a brand-new log for a freshly built map whose Config
// names a WAL directory, journaling the domain's own (random) lineage. An
// existing log file fails closed with ErrWALExists: it holds journaled
// mutations this fresh map does not — recover via LoadFromDisk or remove it.
func attachFreshWAL[K cmp.Ordered, V any](m *core.Map[K, V]) error {
	dir := m.Config().WAL
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("layeredsg: creating WAL dir: %w", err)
	}
	w, err := persist.CreateWAL[K, V](filepath.Join(dir, persist.WALFileName), m.Domain().Lineage(),
		persist.WALOptions{Sync: m.Config().WALSync, Tracer: m.Tracer()})
	if err != nil {
		return err
	}
	m.SetMutationSink(w)
	return nil
}

// persistTopology flattens a machine's shape for dump headers.
func persistTopology(m *Machine) persist.Topology {
	t := m.Topology()
	return persist.Topology{
		Sockets:        t.Sockets(),
		CoresPerSocket: t.CoresPerSocket(),
		ThreadsPerCore: t.ThreadsPerCore(),
		Threads:        m.Threads(),
	}
}

// Typed persistence failure classes, re-exported for errors.Is without
// importing internal packages.
var (
	// ErrPersistFormat: malformed dump or WAL file.
	ErrPersistFormat = persist.ErrFormat
	// ErrPersistVersion: format version this build does not read.
	ErrPersistVersion = persist.ErrVersion
	// ErrPersistChecksum: CRC seal mismatch.
	ErrPersistChecksum = persist.ErrChecksum
	// ErrPersistTruncated: file ended before its declared content.
	ErrPersistTruncated = persist.ErrTruncated
	// ErrPersistMissingShard: incomplete shard set.
	ErrPersistMissingShard = persist.ErrMissingShard
	// ErrPersistTypeMismatch: dump/WAL key or value type differs from the
	// requested type parameters.
	ErrPersistTypeMismatch = persist.ErrTypeMismatch
	// ErrPersistWALMismatch: WAL belongs to a different sequence space than
	// the dump.
	ErrPersistWALMismatch = persist.ErrWALMismatch
	// ErrPersistWALExists: fresh store pointed at an existing log.
	ErrPersistWALExists = persist.ErrWALExists
)
