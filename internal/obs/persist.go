package obs

// PersistKind identifies a persistence event (see internal/persist). Unlike
// the per-operation tracing these are cold-path events — a handful per dump
// or load, never per map operation — so they are recorded on any non-nil
// tracer regardless of Enabled: a load that finished before observability
// was switched on should still gauge what it read.
type PersistKind uint8

const (
	// PersistDumpRecords: key/value records written to the dump file.
	PersistDumpRecords PersistKind = iota
	// PersistDumpBytes: bytes written to the dump file (header, records,
	// trailer).
	PersistDumpBytes
	// PersistLoadRecords: records decoded from the dump file and fed to the
	// builder.
	PersistLoadRecords
	// PersistLoadBytes: bytes read from the dump file.
	PersistLoadBytes
	// PersistWALReplay: WAL records replayed over a base load (the replay
	// depth).
	PersistWALReplay
	// PersistWALDiscard: WAL records or torn-tail bytes discarded during
	// recovery truncation.
	PersistWALDiscard
	// PersistWALFsyncs: fsyncs the WAL performed (per-append under
	// SyncEvery, per commit group under SyncGroup, per tick under
	// SyncInterval, per prune/close otherwise).
	PersistWALFsyncs
	// PersistWALCommits: durability acknowledgments requested (WAL.Commit /
	// Store.Barrier calls that reached the log).
	PersistWALCommits
	// PersistWALGroupCommits: commits whose records an earlier fsync had
	// already covered when they reached the durability mutex — riders that
	// paid no fsync of their own. Under SyncGroup with concurrent
	// committers this is the cohort size minus its leaders; Commits/Fsyncs
	// gauges the mean group size.
	PersistWALGroupCommits
	// PersistWALCommitWaitNs: cumulative nanoseconds commits spent waiting
	// for durability (the group-commit latency toll).
	PersistWALCommitWaitNs
	// PersistWALErrs: sticky WAL I/O error events — the first failure plus
	// every record dropped on it afterwards. Nonzero means the journal is
	// losing acknowledged-to-be-journaled mutations; see Store.Err.
	PersistWALErrs

	nPersistKinds = int(PersistWALErrs) + 1
)

// RecordPersist adds n to a persistence counter. Not gated on Enabled (see
// PersistKind); a nil tracer ignores the call.
func (t *Tracer) RecordPersist(k PersistKind, n uint64) {
	if t == nil {
		return
	}
	t.persist[k].Add(n)
}

// PersistSnapshot summarizes the persistence layer's activity: dump/load
// volume and WAL replay depth.
type PersistSnapshot struct {
	// DumpRecords and DumpBytes total what snapshot dumps wrote.
	DumpRecords uint64 `json:"dump_records"`
	DumpBytes   uint64 `json:"dump_bytes"`
	// LoadRecords and LoadBytes total what base loads read.
	LoadRecords uint64 `json:"load_records"`
	LoadBytes   uint64 `json:"load_bytes"`
	// WALReplayed is the replay depth: records applied over base loads.
	// WALDiscarded counts torn-tail records dropped during recovery.
	WALReplayed  uint64 `json:"wal_replayed"`
	WALDiscarded uint64 `json:"wal_discarded"`
	// WALFsyncs, WALCommits, WALGroupCommits, and WALCommitWaitNs gauge the
	// durability policy's toll: fsyncs performed, acknowledgments requested,
	// commits that rode another's fsync, and cumulative commit-wait time.
	WALFsyncs       uint64 `json:"wal_fsyncs"`
	WALCommits      uint64 `json:"wal_commits"`
	WALGroupCommits uint64 `json:"wal_group_commits"`
	WALCommitWaitNs uint64 `json:"wal_commit_wait_ns"`
	// WALErrs counts sticky WAL I/O error events (first failure + records
	// dropped on it); nonzero is a health alarm.
	WALErrs uint64 `json:"wal_errs"`
}

// persistSnapshot builds the Snapshot section, or nil when no persistence
// activity has been recorded.
func (t *Tracer) persistSnapshot() *PersistSnapshot {
	s := PersistSnapshot{
		DumpRecords:     t.persist[PersistDumpRecords].Load(),
		DumpBytes:       t.persist[PersistDumpBytes].Load(),
		LoadRecords:     t.persist[PersistLoadRecords].Load(),
		LoadBytes:       t.persist[PersistLoadBytes].Load(),
		WALReplayed:     t.persist[PersistWALReplay].Load(),
		WALDiscarded:    t.persist[PersistWALDiscard].Load(),
		WALFsyncs:       t.persist[PersistWALFsyncs].Load(),
		WALCommits:      t.persist[PersistWALCommits].Load(),
		WALGroupCommits: t.persist[PersistWALGroupCommits].Load(),
		WALCommitWaitNs: t.persist[PersistWALCommitWaitNs].Load(),
		WALErrs:         t.persist[PersistWALErrs].Load(),
	}
	if s == (PersistSnapshot{}) {
		return nil
	}
	return &s
}
