package persist

import (
	"fmt"
	"time"
)

// WAL durability policies. The log's appends are always buffered writes at
// the MVCC stamp sites, which never wait for an fsync. Commit (Store.Barrier
// at the root) is the only acknowledgment, and the policy decides what it
// promises:
//
//	SyncNever  Commit pushes the buffer to the OS (no fsync): the promise is
//	           the flushed prefix, which survives a process crash but not an
//	           OS crash. The log fsyncs only on Sync, Prune and Close.
//	SyncGroup  group commit: Commit fsyncs. The first committer becomes the
//	           fsync leader; committers arriving while the leader's fsync is
//	           in flight block on the leadership mutex and, on waking, find
//	           the leader's fsync already covered their records (every
//	           record is appended before its Commit is called) — one fsync
//	           retires the whole cohort.
//
// A caller who wants every mutation durable commits after each one; a caller
// who wants a bounded window commits from a ticker.

// SyncPolicy selects what the write-ahead log's Commit promises. The zero
// value is SyncNever.
type SyncPolicy uint8

const (
	// SyncNever makes Commit a flush to the OS; the log fsyncs only on
	// Sync, Prune and Close. The default.
	SyncNever SyncPolicy = iota
	// SyncGroup makes Commit an fsync, batching concurrent committers into
	// one fsync (group commit).
	SyncGroup
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncGroup:
		return "group"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy parses a policy label: "never" (or "") and "group".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "never":
		return SyncNever, nil
	case "group":
		return SyncGroup, nil
	}
	return SyncNever, fmt.Errorf("persist: unknown sync policy %q (want never or group)", s)
}

// WALStats counts a log's durability work since it was created or opened.
type WALStats struct {
	// Fsyncs counts fsyncs of the log: one per commit group under
	// SyncGroup, and one per Sync or Prune.
	Fsyncs uint64 `json:"fsyncs"`
	// Commits counts acknowledgments requested: Commit calls (Store.Barrier
	// at the root) that reached an open, healthy log.
	Commits uint64 `json:"commits"`
	// GroupCommits counts commits whose records an earlier fsync had
	// already covered when they reached the durability mutex: riders that
	// paid no fsync of their own. Under SyncGroup, Commits minus
	// GroupCommits is the number of leaders.
	GroupCommits uint64 `json:"group_commits"`
	// CommitWaitNs is the time commits spent waiting for durability (the
	// group-commit toll).
	CommitWaitNs uint64 `json:"commit_wait_ns"`
	// Errs counts sticky I/O error events: the first failure plus every
	// record dropped on it afterwards. Nonzero means mutations are applied
	// in memory but not journaled; see Err.
	Errs uint64 `json:"errs"`
}

// Stats reads the log's durability counters. Part of core.MutationSink.
func (w *WAL[K, V]) Stats() WALStats {
	return WALStats{
		Fsyncs:       w.fsyncs.Load(),
		Commits:      w.commits.Load(),
		GroupCommits: w.groupCommits.Load(),
		CommitWaitNs: w.commitWaitNs.Load(),
		Errs:         w.errs.Load(),
	}
}

// Commit blocks until every record appended to the log before the call is
// durable under the log's sync policy — an fsync for SyncGroup, a flush to
// the OS for SyncNever. It is the log's only acknowledgment. seq names the
// stamp the caller is acknowledging; the ack always covers it, because a
// mutation's record is appended at its stamp site, before the mutation
// returns to the caller who then asks for the ack. (The watermark is
// tracked in append order, not stamp order: stamps are drawn before the
// append mutex is taken, so a smaller stamp can legitimately be appended
// after a larger one, and a stamp-indexed watermark would falsely cover
// it.)
//
// Under SyncGroup, concurrent Commits batch: the first becomes the fsync
// leader and the rest ride its fsync (see SyncPolicy). A closed log returns
// its sticky error (Close itself fsyncs, so a cleanly closed log is
// durable). Part of core.MutationSink.
func (w *WAL[K, V]) Commit(seq uint64) error {
	_ = seq // documentation: the ack covers it; see above for why it is not a watermark index
	w.mu.Lock()
	err, closed, target := w.err, w.f == nil, w.appended
	w.mu.Unlock()
	if err != nil || closed {
		return err
	}
	w.commits.Add(1)
	if w.pol == SyncNever {
		return w.Flush()
	}
	start := time.Now()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	defer func() { w.commitWaitNs.Add(uint64(time.Since(start).Nanoseconds())) }()
	if w.durable >= target {
		// The rider path: an earlier fsync — a leader's, already in flight
		// when this committer arrived, or a previous round's — covered our
		// records, so no new fsync is bought. (Every ack routes through
		// syncMu, even when already durable, so this count is exact: under
		// SyncGroup, commits minus riders is the number of leaders.)
		w.groupCommits.Add(1)
		return nil
	}
	return w.leaderSync()
}

// leaderSync is one durability round: flush under the append mutex, fsync
// outside it, advance the durable watermark. The caller must hold syncMu —
// leadership is what keeps w.f alive across the unlocked fsync (Prune and
// Close take syncMu before swapping or closing the handle).
func (w *WAL[K, V]) leaderSync() error {
	w.mu.Lock()
	if err := w.flushLocked(); err != nil || w.f == nil {
		w.mu.Unlock()
		return err
	}
	target := w.appended
	f := w.f
	w.mu.Unlock()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		w.setErrLocked(err)
		w.mu.Unlock()
		return err
	}
	w.durable = target
	w.fsyncs.Add(1)
	return nil
}
