package layeredsg

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"layeredsg/internal/obs"
	"layeredsg/internal/persist"
)

// Durability-surface tests: Store.Barrier / Store.Err across the WALSync
// policies, plumbed end-to-end through Config. The policy mechanics
// themselves (group-commit batching, crash matrices, fuzzing) are pinned in
// internal/persist; here the contract is that what Barrier acknowledges is
// really on the fd, which we verify by recovering a byte-for-byte copy of
// the live log — the copy sees only what the OS received, exactly the
// process-crash survivor set.

func barrierPolicies() map[string]WALSyncPolicy {
	return map[string]WALSyncPolicy{
		"never": SyncNever,
		"group": SyncGroup,
	}
}

// copyWALRecords snapshots the live log's bytes and recovers the copy.
func copyWALRecords(t *testing.T, walDir string) []persist.WALRecord[int64, int64] {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(walDir, persist.WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), persist.WALFileName)
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, _, err := persist.OpenWAL[int64, int64](cp, 0, persist.SyncNever)
	if err != nil {
		t.Fatalf("recovering copied WAL: %v", err)
	}
	w.Close()
	return recs
}

func TestStoreBarrierPolicies(t *testing.T) {
	for name, pol := range barrierPolicies() {
		t.Run(name, func(t *testing.T) {
			cfg := persistConfig(persistMachine(t, 2, 2, 4))
			cfg.WAL = t.TempDir()
			cfg.WALSync = pol
			tr := obs.NewTracer(obs.TracerConfig{Name: "barrier_" + name})
			defer tr.Close()
			cfg.Tracer = tr
			st, err := NewStore[int64, int64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			// Concurrent writers each acknowledge their own batch — the
			// group-commit shape Barrier is built for.
			const writers, perWriter = 4, 16
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(base int64) {
					defer wg.Done()
					for k := base; k < base+perWriter; k++ {
						st.Insert(k, k*3)
					}
					errs <- st.Barrier()
				}(int64(g * perWriter))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}

			// Every acknowledged insert must already sit on the fd: recover
			// a copy of the live log and demand the full key set.
			seen := map[int64]bool{}
			for _, r := range copyWALRecords(t, cfg.WAL) {
				if r.Op == persist.WALInsert {
					seen[r.Key] = true
				}
			}
			for k := int64(0); k < writers*perWriter; k++ {
				if !seen[k] {
					t.Fatalf("policy %v: key %d acknowledged by Barrier but absent from the journal", pol, k)
				}
			}

			l := tr.Snapshot().WAL
			if l == nil || l.Commits < writers {
				t.Fatalf("wal section = %+v, want >= %d commits", l, writers)
			}
		})
	}
}

func TestStoreBarrierNoWAL(t *testing.T) {
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Insert(1, 3)
	if err := st.Barrier(); err != nil {
		t.Fatalf("Barrier without a WAL = %v, want nil", err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err without a WAL = %v, want nil", err)
	}
}

func TestStoreBarrierClosedPanics(t *testing.T) {
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Barrier on a closed Store did not panic")
		}
	}()
	st.Barrier()
}

// stubFailSink stands in for a journal whose disk died: Commit and Err
// report the sticky failure, appends vanish.
type stubFailSink struct{ err error }

func (s *stubFailSink) Insert(uint64, int64, int64) {}
func (s *stubFailSink) Remove(uint64, int64)        {}
func (s *stubFailSink) Close() error                { return nil }
func (s *stubFailSink) Commit(uint64) error         { return s.err }
func (s *stubFailSink) Err() error                  { return s.err }
func (s *stubFailSink) Stats() persist.WALStats     { return persist.WALStats{Errs: 1} }

// TestStoreErrSurfaced pins the health-check path: a failing journal is
// visible through Store.Err and Barrier long before Close.
func TestStoreErrSurfaced(t *testing.T) {
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sinkErr := errors.New("journal disk gone")
	st.Map().SetMutationSink(&stubFailSink{err: sinkErr})
	st.Insert(1, 3)
	if err := st.Err(); !errors.Is(err, sinkErr) {
		t.Fatalf("Err() = %v, want the sink's sticky error", err)
	}
	if err := st.Barrier(); !errors.Is(err, sinkErr) {
		t.Fatalf("Barrier() = %v, want the sink's sticky error", err)
	}
	st.Map().SetMutationSink(nil) // detach before Close; the stub is not a real log
}

// TestStoreWALSyncRecovery runs the full dump → journal → crash-free restart
// loop under each policy: recovery must be policy-independent (the policy
// buys durability, never changes the replay semantics).
func TestStoreWALSyncRecovery(t *testing.T) {
	for name, pol := range barrierPolicies() {
		t.Run(name, func(t *testing.T) {
			dumpDir, walDir := t.TempDir(), t.TempDir()
			cfg := persistConfig(persistMachine(t, 2, 2, 4))
			cfg.WAL = walDir
			cfg.WALSync = pol
			st, err := NewStore[int64, int64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := fillStore(t, st, 500)
			if _, err := st.StoreToDisk(dumpDir); err != nil {
				t.Fatal(err)
			}
			for k := int64(9000); k < 9050; k++ {
				st.Insert(k, k*3)
				model[k] = k * 3
			}
			if err := st.Barrier(); err != nil {
				t.Fatal(err)
			}
			st.Close()

			lcfg := persistConfig(persistMachine(t, 1, 2, 2))
			lcfg.WAL = walDir
			lcfg.WALSync = pol
			st2, ls, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if ls.WALReplayed != 50 {
				t.Fatalf("policy %v: replayed %d WAL records, want 50", pol, ls.WALReplayed)
			}
			checkStoreModel(t, st2, model)
		})
	}
}
