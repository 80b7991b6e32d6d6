package persist

import (
	"fmt"
	"time"
)

// WAL durability policies. The log's appends are always buffered writes at
// the MVCC stamp sites — the policy decides when those buffered records
// become *durable* (fsynced), and what an explicit acknowledgment
// (WAL.Commit, Store.Barrier at the root) promises:
//
//	SyncNever        appends buffer; fsync only on Close, Prune, and dump.
//	                 Commit pushes the buffer to the OS (no fsync): the
//	                 promise is the flushed prefix, which survives a process
//	                 crash but not an OS crash.
//	SyncInterval(d)  a background flusher fsyncs every d, bounding the
//	                 un-durable window without an fsync on any hot path.
//	                 Commit still forces a real fsync acknowledgment.
//	SyncEvery        every append flushes and fsyncs before the stamp site
//	                 returns — maximal durability, one fsync per mutation.
//	SyncGroup        group commit: appends buffer, and durability is bought
//	                 at Commit. The first committer becomes the fsync
//	                 leader; committers arriving while the leader's fsync is
//	                 in flight block on the leadership mutex and, on waking,
//	                 find the leader's fsync already covered their records
//	                 (every record is appended before its Commit is called)
//	                 — one fsync retires the whole cohort.
//
// The zero value is SyncNever, preserving the pre-policy buffered behavior.

// syncMode discriminates SyncPolicy values.
type syncMode uint8

const (
	syncNever syncMode = iota
	syncInterval
	syncEvery
	syncGroup
)

// SyncPolicy selects when the write-ahead log fsyncs; see the package
// constants SyncNever, SyncEvery, SyncGroup and the constructor
// SyncInterval. The zero value is SyncNever.
type SyncPolicy struct {
	mode     syncMode
	interval time.Duration
}

var (
	// SyncNever buffers appends and fsyncs only on Close, Prune, and after
	// dumps; Commit promises the flushed prefix only. The default.
	SyncNever = SyncPolicy{mode: syncNever}
	// SyncEvery flushes and fsyncs on every append.
	SyncEvery = SyncPolicy{mode: syncEvery}
	// SyncGroup fsyncs on Commit, batching concurrent committers into one
	// fsync (group commit).
	SyncGroup = SyncPolicy{mode: syncGroup}
)

// DefaultSyncInterval is SyncInterval's period when given a non-positive
// duration.
const DefaultSyncInterval = 10 * time.Millisecond

// SyncInterval returns the policy that fsyncs from a background flusher
// every d (DefaultSyncInterval when d <= 0).
func SyncInterval(d time.Duration) SyncPolicy {
	if d <= 0 {
		d = DefaultSyncInterval
	}
	return SyncPolicy{mode: syncInterval, interval: d}
}

// Interval returns the background-flusher period (0 unless the policy is an
// interval policy).
func (p SyncPolicy) Interval() time.Duration { return p.interval }

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p.mode {
	case syncNever:
		return "never"
	case syncInterval:
		return fmt.Sprintf("interval:%s", p.interval)
	case syncEvery:
		return "every"
	case syncGroup:
		return "group"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", p.mode)
	}
}

// ParseSyncPolicy parses a policy label: "never", "every", "group",
// "interval" (the default period), or "interval:<duration>".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "" || s == "never":
		return SyncNever, nil
	case s == "every":
		return SyncEvery, nil
	case s == "group":
		return SyncGroup, nil
	case s == "interval":
		return SyncInterval(0), nil
	case len(s) > len("interval:") && s[:len("interval:")] == "interval:":
		d, err := time.ParseDuration(s[len("interval:"):])
		if err != nil {
			return SyncNever, fmt.Errorf("persist: bad sync interval %q: %w", s, err)
		}
		return SyncInterval(d), nil
	}
	return SyncNever, fmt.Errorf("persist: unknown sync policy %q (want never, interval[:d], every, or group)", s)
}

// WALStats counts a log's durability work since it was created or opened.
type WALStats struct {
	// Fsyncs counts fsyncs of the log: one per append under SyncEvery, per
	// commit group under SyncGroup, per tick under SyncInterval, and one per
	// Sync or Prune.
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

// Stats reads the log's durability counters.
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
// durable under the log's sync policy — a real fsync for SyncInterval,
// SyncEvery, and SyncGroup, a flush to the OS for SyncNever. seq names the
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
// durable).
func (w *WAL[K, V]) Commit(seq uint64) error {
	_ = seq // documentation: the ack covers it; see above for why it is not a watermark index
	w.mu.Lock()
	err, closed, target := w.err, w.f == nil, w.appended
	w.mu.Unlock()
	if err != nil || closed {
		return err
	}
	w.commits.Add(1)
	if w.pol.mode == syncNever {
		return w.Flush()
	}
	start := time.Now()
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	defer func() { w.commitWaitNs.Add(uint64(time.Since(start).Nanoseconds())) }()
	if w.durable.Load() >= target {
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
	w.advanceDurable(target)
	w.fsyncs.Add(1)
	return nil
}

// advanceDurable raises the durable watermark to at least target. Racing
// advancers (a SyncEvery append under mu, a leader under syncMu) only ever
// move it forward.
func (w *WAL[K, V]) advanceDurable(target uint64) {
	for {
		cur := w.durable.Load()
		if target <= cur || w.durable.CompareAndSwap(cur, target) {
			return
		}
	}
}

// syncAppendedLocked is SyncEvery's per-append durability: flush + fsync
// under the append mutex (the stamp site blocks for the fsync — that is the
// policy's price). Errors go sticky; the append itself already succeeded
// into the buffer.
func (w *WAL[K, V]) syncAppendedLocked() {
	if err := w.flushLocked(); err != nil {
		return
	}
	target := w.appended
	if err := w.f.Sync(); err != nil {
		w.setErrLocked(err)
		return
	}
	w.advanceDurable(target)
	w.fsyncs.Add(1)
}

// flushLoop is the SyncInterval background flusher.
func (w *WAL[K, V]) flushLoop(d time.Duration) {
	defer close(w.flusherDone)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-w.stopFlusher:
			return
		case <-t.C:
			w.Sync() //nolint:errcheck // sticky: surfaced via Err and WALStats.Errs
		}
	}
}

// stopFlushLoop stops the SyncInterval flusher, if one runs. Idempotent;
// must be called before taking syncMu (the flusher's Sync takes it).
func (w *WAL[K, V]) stopFlushLoop() {
	if w.stopFlusher == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stopFlusher) })
	<-w.flusherDone
}
