package persist

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// WAL durability benchmarks, behind `make bench-wal`. Two surfaces:
// BenchmarkWALAppend is the stamp-site cost alone (what every Insert pays
// with no acknowledgment), BenchmarkWALCommit is the acknowledged path
// (append + Commit per operation, concurrent committers) — the spread
// between SyncNever and SyncGroup is the fsync toll per acknowledgment that
// group commit's cohorts share.

func benchPolicies() []SyncPolicy {
	return []SyncPolicy{SyncNever, SyncGroup}
}

func BenchmarkWALAppend(b *testing.B) {
	for _, pol := range benchPolicies() {
		b.Run(pol.String(), func(b *testing.B) {
			w, err := CreateWAL[uint64, uint64](filepath.Join(b.TempDir(), WALFileName), 7, pol)
			if err != nil {
				b.Fatal(err)
			}
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s := seq.Add(1)
					w.Insert(s, s, s*3)
				}
			})
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkWALCommit(b *testing.B) {
	for _, pol := range benchPolicies() {
		b.Run(pol.String(), func(b *testing.B) {
			w, err := CreateWAL[uint64, uint64](filepath.Join(b.TempDir(), WALFileName), 7, pol)
			if err != nil {
				b.Fatal(err)
			}
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s := seq.Add(1)
					w.Insert(s, s, s*3)
					if err := w.Commit(s); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWALPrune times the prune that follows a dump: the log holds 2^18
// records and the dump covers all but the last 64. Run it with -benchmem;
// the scan that finds the kept records allocates nothing per record.
func BenchmarkWALPrune(b *testing.B) {
	const records, kept = 1 << 18, 64
	dir := b.TempDir()
	tmpl := filepath.Join(dir, "template.wal")
	w, err := CreateWAL[uint64, uint64](tmpl, 7, SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	for s := uint64(1); s <= records; s++ {
		w.Insert(s, s, s*3)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, WALFileName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			b.Fatal(err)
		}
		w, _, _, err := OpenWAL[uint64, uint64](path, 7, SyncNever)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := w.Prune(records - kept); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
