package persist

import (
	"cmp"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Sync-policy tests: what each policy promises, group-commit batching,
// early sticky-error surfacing, and Prune's off-lock append path. The
// process-kill counterpart lives in crash_test.go; FuzzWALSync replays
// random op/flush/commit/prune/crash schedules over the same invariants.

// crashWAL simulates a process crash in-process: the file handle is
// abandoned without flush or fsync, so the bufio tail is dropped exactly as
// SIGKILL would drop it. What the OS page cache would lose in a power
// failure is outside this simulation — the child-process matrix in
// crash_test.go covers the kill boundary for real.
func crashWAL[K cmp.Ordered, V any](w *WAL[K, V]) {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
}

func newSyncedWAL(t testing.TB, pol SyncPolicy) *WAL[uint64, uint64] {
	t.Helper()
	path := filepath.Join(t.TempDir(), WALFileName)
	w, err := CreateWAL[uint64, uint64](path, 7, pol)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func reopenSeqs(t testing.TB, path string) []uint64 {
	t.Helper()
	w, recs, _, err := OpenWAL[uint64, uint64](path, 7, SyncNever)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer w.Close()
	seqs := make([]uint64, len(recs))
	for i, r := range recs {
		seqs[i] = r.Seq
	}
	return seqs
}

func wantSeqs(t testing.TB, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records (%v), want %d (%v)", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered seqs %v, want %v", got, want)
		}
	}
}

func TestSyncPolicyParseString(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
	}{
		{"", SyncNever},
		{"never", SyncNever},
		{"group", SyncGroup},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if err != nil {
			t.Fatalf("ParseSyncPolicy(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, want %v", c.in, got, c.want)
		}
		// String must round-trip back through the parser.
		back, err := ParseSyncPolicy(got.String())
		if err != nil || back != got {
			t.Fatalf("round trip %q -> %v -> %q: %v", c.in, got, got.String(), err)
		}
	}
	// Commit is the only acknowledgment: the retired per-append and
	// background-flusher labels are rejected, and the error names the two
	// policies that remain.
	for _, bad := range []string{"every", "interval", "interval:2ms", "always", "NEVER"} {
		_, err := ParseSyncPolicy(bad)
		if err == nil {
			t.Fatalf("ParseSyncPolicy(%q) succeeded, want error", bad)
		}
		if msg := err.Error(); !strings.Contains(msg, "never") || !strings.Contains(msg, "group") {
			t.Fatalf("ParseSyncPolicy(%q) error %q does not name never and group", bad, msg)
		}
	}
	var zero SyncPolicy
	if zero != SyncNever {
		t.Fatalf("zero SyncPolicy = %v, want SyncNever", zero)
	}
}

// TestWALSyncNeverBufferLost pins the SyncNever contract: unacknowledged
// buffered appends die with the process.
func TestWALSyncNeverBufferLost(t *testing.T) {
	w := newSyncedWAL(t, SyncNever)
	for s := uint64(1); s <= 8; s++ {
		w.Insert(s, s, s*3)
	}
	crashWAL(w)
	wantSeqs(t, reopenSeqs(t, w.Path())) // nothing: the whole tail was buffered
}

// TestWALCommitPromise pins what Commit acknowledges under each policy:
// all records appended before the Commit survive a crash right after it.
func TestWALCommitPromise(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncGroup} {
		t.Run(pol.String(), func(t *testing.T) {
			w := newSyncedWAL(t, pol)
			for s := uint64(1); s <= 8; s++ {
				w.Insert(s, s, s*3)
			}
			if err := w.Commit(8); err != nil {
				t.Fatal(err)
			}
			// Post-acknowledgment appends are fair game for the crash to
			// lose — but the promise covers 1..8.
			w.Insert(9, 9, 27)
			crashWAL(w)
			got := reopenSeqs(t, w.Path())
			if len(got) < 8 {
				t.Fatalf("recovered %v, promise covered 1..8", got)
			}
			for i := 0; i < 8; i++ {
				if got[i] != uint64(i+1) {
					t.Fatalf("recovered %v, promise covered 1..8", got)
				}
			}
		})
	}
}

// TestWALGroupCommitBatches builds a deterministic cohort: the test holds
// syncMu (blocking any leader), lets four goroutines append and enter
// Commit, then releases. Exactly one becomes the fsync leader; the other
// three must find the leader's fsync already covered their records and
// return on the cohort path — one fsync retires all four.
func TestWALGroupCommitBatches(t *testing.T) {
	w := newSyncedWAL(t, SyncGroup)

	w.syncMu.Lock()
	const cohort = 4
	done := make(chan error, cohort)
	for i := 0; i < cohort; i++ {
		go func(s uint64) {
			w.Insert(s, s, s*3)
			done <- w.Commit(s)
		}(uint64(i + 1))
	}
	// Wait until all four have appended and entered Commit (the commits
	// counter ticks before the leadership wait), so the eventual leader's
	// flush+fsync covers every cohort member.
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().Commits < cohort {
		if time.Now().After(deadline) {
			w.syncMu.Unlock()
			t.Fatal("cohort never assembled")
		}
		time.Sleep(time.Millisecond)
	}
	w.syncMu.Unlock()
	for i := 0; i < cohort; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	st := w.Stats()
	if st.Fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want exactly 1 (one leader for the whole cohort)", st.Fsyncs)
	}
	if st.GroupCommits != cohort-1 {
		t.Fatalf("group commits = %d, want %d (cohort minus its leader)", st.GroupCommits, cohort-1)
	}
	if w.durable < cohort {
		t.Fatalf("durable watermark = %d, want >= %d", w.durable, cohort)
	}
	crashWAL(w)
	got := reopenSeqs(t, w.Path())
	if len(got) != cohort {
		t.Fatalf("recovered %v, want all %d committed records", got, cohort)
	}
}

// TestWALErrSurfacedEarly: a failing log is observable through Err and its
// Errs counter long before Close, and every record dropped on the sticky
// error is counted.
func TestWALErrSurfacedEarly(t *testing.T) {
	w := newSyncedWAL(t, SyncNever)
	w.Insert(1, 1, 3)
	// Fault injection: kill the descriptor under the log. The buffered
	// append above is fine; the flush hits the dead fd.
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	if err := w.Flush(); err == nil {
		t.Fatal("Flush over closed fd succeeded")
	}
	if err := w.Err(); err == nil {
		t.Fatal("Err() = nil after failed flush; the error must surface before Close")
	}
	errsBefore := w.Stats().Errs
	if errsBefore == 0 {
		t.Fatalf("WAL stats = %+v, want errs > 0 after failed flush", w.Stats())
	}
	w.Insert(2, 2, 6) // dropped on the sticky error — and counted
	w.Remove(3, 3)
	if got := w.Stats().Errs; got != errsBefore+2 {
		t.Fatalf("errs = %d, want %d (each dropped record counted)", got, errsBefore+2)
	}
	if err := w.Commit(2); err == nil {
		t.Fatal("Commit on a failed log succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close did not return the sticky error")
	}
}

// TestWALPruneOffLockAppends proves the prune rebuild runs off the append
// mutex: while Prune is parked in its off-lock phase, appends (and flushes)
// complete, and the rewritten log carries them. One append is flushed during
// the rebuild (the phase-2 scan sees it), one stays buffered (phase 3's
// delta copy carries it) — both must survive.
func TestWALPruneOffLockAppends(t *testing.T) {
	w := newSyncedWAL(t, SyncNever)
	for s := uint64(1); s <= 10; s++ {
		w.Insert(s, s, s*3)
	}

	inRebuild := make(chan struct{})
	release := make(chan struct{})
	w.pruneHook = func() {
		close(inRebuild)
		<-release
	}
	pruneDone := make(chan error, 1)
	go func() { pruneDone <- w.Prune(6) }()

	<-inRebuild
	// Prune is mid-rebuild holding syncMu but not mu: the stamp sites must
	// be open for business. If they blocked on the prune, this would
	// deadlock (release closes only after these return) — that deadlock is
	// the latency regression this test pins.
	start := time.Now()
	w.Insert(11, 11, 33)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Insert(12, 12, 36) // stays buffered; phase 3 carries it
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("appends took %v during an off-lock prune phase", d)
	}
	close(release)

	if err := <-pruneDone; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantSeqs(t, reopenSeqs(t, w.Path()), 7, 8, 9, 10, 11, 12)
}

// FuzzWALSync replays random schedules of append/flush/commit/prune/crash
// against both sync policies and checks the durability invariants after each
// recovery: every promised record above the prune floor is recovered, no
// record is resurrected from nowhere, and payloads survive intact.
func FuzzWALSync(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 30, 6}, uint8(0))
	f.Add([]byte{0, 0, 4, 0, 6, 0, 0, 3, 7, 0, 12, 6}, uint8(3))
	f.Add([]byte{0, 1, 2, 29, 0, 0, 14, 0, 4, 6, 0, 7}, uint8(1))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 4, 6, 4, 6}, uint8(2))
	f.Fuzz(func(t *testing.T, script []byte, polSel uint8) {
		if len(script) > 128 {
			script = script[:128]
		}
		pols := []SyncPolicy{SyncNever, SyncGroup}
		pol := pols[int(polSel)%len(pols)]
		path := filepath.Join(t.TempDir(), WALFileName)
		w, err := CreateWAL[uint64, uint64](path, 7, pol)
		if err != nil {
			t.Fatal(err)
		}

		var (
			seq        uint64              // last stamp handed out
			epoch      []uint64            // appended since the last promise point
			promised   = map[uint64]bool{} // must survive any later crash
			appended   = map[uint64]bool{} // everything ever journaled
			pruneFloor uint64
		)
		promise := func() {
			for _, s := range epoch {
				promised[s] = true
			}
			epoch = epoch[:0]
		}
		check := func(recs []WALRecord[uint64, uint64]) {
			got := map[uint64]bool{}
			for _, r := range recs {
				if !appended[r.Seq] {
					t.Fatalf("recovery resurrected seq %d, never appended", r.Seq)
				}
				wantOp := WALInsert
				if r.Seq%5 == 0 {
					wantOp = WALRemove
				}
				if r.Op != wantOp {
					t.Fatalf("seq %d recovered with op %d, journaled %d", r.Seq, r.Op, wantOp)
				}
				if r.Key != r.Seq || (r.Op == WALInsert && r.Value != r.Seq*3) {
					t.Fatalf("seq %d recovered corrupt: key=%d value=%d", r.Seq, r.Key, r.Value)
				}
				got[r.Seq] = true
			}
			for s := range promised {
				if s > pruneFloor && !got[s] {
					t.Fatalf("promised seq %d lost (policy %v, prune floor %d, recovered %d records)",
						s, pol, pruneFloor, len(recs))
				}
			}
		}

		for _, op := range script {
			switch op % 8 {
			case 0, 1, 2: // append (weighted: schedules should mostly write)
				seq++
				if seq%5 == 0 {
					w.Remove(seq, seq)
				} else {
					w.Insert(seq, seq, seq*3)
				}
				appended[seq] = true
				epoch = append(epoch, seq)
			case 3: // flush: survives crashWAL's buffered-tail drop
				if w.Flush() == nil {
					promise()
				}
			case 4: // acknowledge everything appended so far
				if w.Commit(seq) == nil {
					promise()
				}
			case 5: // prune a prefix; the rewrite fsyncs everything it keeps
				upTo := seq - min(uint64(op>>3), seq)
				if w.Prune(upTo) == nil {
					promise()
					if upTo > pruneFloor {
						pruneFloor = upTo
					}
				}
			default: // crash, recover, verify, continue on the reopened log
				crashWAL(w)
				w2, recs, _, err := OpenWAL[uint64, uint64](path, 7, pol)
				if err != nil {
					t.Fatalf("recovery failed: %v", err)
				}
				check(recs)
				w = w2
				// Records that recovery dropped were never promised; the
				// unpromised epoch died with the crash. Re-anchor appended to
				// what actually survived so later checks stay exact.
				epoch = epoch[:0]
			}
		}
		// A clean Close fsyncs: everything appended becomes durable.
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		promise()
		w2, recs, _, err := OpenWAL[uint64, uint64](path, 7, SyncNever)
		if err != nil {
			t.Fatalf("final recovery failed: %v", err)
		}
		check(recs)
		w2.Close()
	})
}
