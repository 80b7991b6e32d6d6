package layeredsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/persist"
)

// The persistence battery: dump/load round trips, topology re-derivation,
// snapshot isolation under concurrent writers, Close-during-dump lifecycle,
// fail-closed fault injection, WAL recovery (replay, torn tail, lineage
// skew), and the race-persist torture run behind `make race-persist`.

func persistMachine(t testing.TB, sockets, coresPerSocket, threads int) *Machine {
	t.Helper()
	topo, err := NewTopology(sockets, coresPerSocket, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func persistConfig(machine *Machine) Config {
	return Config{Machine: machine, Kind: LazyLayeredSG, Seed: 1}
}

// fillStore batch-inserts keys [0, n) with value k*3 and returns the model.
func fillStore(t testing.TB, st *Store[int64, int64], n int) map[int64]int64 {
	t.Helper()
	model := make(map[int64]int64, n)
	const batch = 4096
	keys := make([]int64, 0, batch)
	vals := make([]int64, 0, batch)
	flush := func() {
		if len(keys) == 0 {
			return
		}
		if _, err := st.InsertBatch(keys, vals); err != nil {
			t.Fatal(err)
		}
		keys, vals = keys[:0], vals[:0]
	}
	for i := 0; i < n; i++ {
		k := int64(i)
		keys = append(keys, k)
		vals = append(vals, k*3)
		model[k] = k * 3
		if len(keys) == batch {
			flush()
		}
	}
	flush()
	return model
}

// checkStoreModel verifies a quiescent store holds exactly model and its
// shared structure validates.
func checkStoreModel(t *testing.T, st *Store[int64, int64], model map[int64]int64) {
	t.Helper()
	m := st.Map()
	if got, want := m.Len(), len(model); got != want {
		t.Fatalf("Len() = %d, model has %d keys", got, want)
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := m.Keys()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	for _, k := range want[:min(len(want), 64)] {
		if v, ok := st.Get(k); !ok || v != model[k] {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, model[k])
		}
	}
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDumpLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dumpTracer := NewTracer(TracerConfig{Name: "persist-dump"})
	defer dumpTracer.Close()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
	cfg.Tracer = dumpTracer
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 20000)
	for k := int64(0); k < 20000; k += 7 {
		st.Remove(k)
		delete(model, k)
	}
	ds, err := st.StoreToDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records != uint64(len(model)) {
		t.Fatalf("dumped %d records, model has %d", ds.Records, len(model))
	}
	st.Close()
	if p := dumpTracer.Snapshot().Persist; p == nil || p.DumpRecords != uint64(len(model)) || p.DumpBytes != ds.Bytes {
		t.Fatalf("dump tracer persist section %+v, want %d records / %d bytes", p, len(model), ds.Bytes)
	}

	loadTracer := NewTracer(TracerConfig{Name: "persist-load"})
	defer loadTracer.Close()
	lcfg := persistConfig(persistMachine(t, 1, 2, 2))
	lcfg.Tracer = loadTracer
	st2, ls, err := LoadFromDisk[int64, int64](dir, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ls.Records != uint64(len(model)) || ls.BaseSeq != ds.BaseSeq {
		t.Fatalf("load stats %+v, want %d records at seq %d", ls, len(model), ds.BaseSeq)
	}
	checkStoreModel(t, st2, model)
	if p := loadTracer.Snapshot().Persist; p == nil || p.LoadRecords != uint64(len(model)) {
		t.Fatalf("load tracer persist section %+v, want %d records", p, len(model))
	}
	// The loaded store is fully live: mutations and snapshots work.
	if !st2.Insert(1<<40, 1) || st2.Insert(1<<40, 1) {
		t.Fatal("loaded store does not take mutations")
	}
	snap, err := st2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
}

// TestLoadTopologyRederivation dumps under a 4-socket machine and loads under
// 1- and 2-socket machines: the dump carries no layout, so membership
// vectors, arena placement, and the hash index must all be re-derived for the
// load machine — verified by structural validation plus cross-stripe reads
// from every stripe of the load machine.
func TestLoadTopologyRederivation(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 4, 2, 8)))
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 10000)
	ds, err := st.StoreToDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Shards != 4 {
		t.Fatalf("4-socket inline dump wrote %d shards, want one per socket", ds.Shards)
	}
	st.Close()

	for _, shape := range []struct{ sockets, cores, threads int }{
		{1, 2, 2},
		{2, 2, 4},
	} {
		t.Run(fmt.Sprintf("%d-socket", shape.sockets), func(t *testing.T) {
			st2, ls, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, shape.sockets, shape.cores, shape.threads)))
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if ls.Source.Sockets != 4 || ls.Source.Threads != 8 {
				t.Fatalf("recorded source topology %+v, want the 4-socket dump machine", ls.Source)
			}
			if got := st2.Map().Threads(); got != shape.threads {
				t.Fatalf("loaded store has %d stripes, want the load machine's %d", got, shape.threads)
			}
			// Cross-stripe point reads from every stripe: each leased handle
			// resolves keys its stripe never inserted.
			for stripe := 0; stripe < shape.threads; stripe++ {
				st2.Do(func(h *Handle[int64, int64]) {
					for _, k := range []int64{0, 1234, 9999} {
						if v, ok := h.Get(k); !ok || v != model[k] {
							t.Fatalf("Get(%d) = (%d, %v) on load machine", k, v, ok)
						}
					}
				})
			}
			checkStoreModel(t, st2, model)
		})
	}
}

// TestDumpSnapshotIsolation churns concurrent writers for the whole duration
// of a StoreToDisk: the dump must capture exactly its snapshot — every base
// key, no torn state — while the writers proceed. The loaded result must hold
// all base keys and only keys from the known universe.
func TestDumpSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 2, 2, 4)))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := fillStore(t, st, 8000)

	const churnLo, churnHi = 100000, 101000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := churnLo + int64((i*7+w*331)%(churnHi-churnLo))
				if i%2 == 0 {
					st.Insert(k, k)
				} else {
					st.Remove(k)
				}
			}
		}(w)
	}
	ds, err := st.StoreToDisk(dir)
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records < uint64(len(base)) {
		t.Fatalf("dump captured %d records, fewer than the %d stable base keys", ds.Records, len(base))
	}

	st2, _, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, 1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for k, v := range base {
		if got, ok := st2.Get(k); !ok || got != v {
			t.Fatalf("base key %d = (%d, %v) after load, want (%d, true)", k, got, ok, v)
		}
	}
	for _, k := range st2.Map().Keys() {
		if _, ok := base[k]; !ok && (k < churnLo || k >= churnHi) {
			t.Fatalf("loaded store holds key %d from outside the written universe", k)
		}
	}
	if err := st2.Map().SharedStructure().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDuringDump: Close concurrent with an in-flight StoreToDisk blocks
// on the dump's snapshot ticket — the documented "dump blocks Close"
// behavior — and the dump completes loadably.
func TestCloseDuringDump(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 2, 2, 4)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(fillStore(t, st, 120000))

	type outcome struct {
		stats DumpStats
		err   error
	}
	done := make(chan outcome, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		stats, err := st.StoreToDisk(dir)
		done <- outcome{stats, err}
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the dump acquire its snapshot
	st.Close()
	out := <-done
	if out.err != nil {
		t.Fatalf("dump concurrent with Close: %v", out.err)
	}
	if out.stats.Records != uint64(n) {
		t.Fatalf("dump wrote %d records, want %d", out.stats.Records, n)
	}
	st2, ls, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, 1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Records != uint64(n) {
		t.Fatalf("loaded %d records, want %d", ls.Records, n)
	}
	st2.Close()
}

func TestDumpRequiresSnapshots(t *testing.T) {
	cfg := persistConfig(persistMachine(t, 1, 2, 2))
	cfg.Kind = LayeredSG
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.StoreToDisk(t.TempDir()); err == nil {
		t.Fatal("StoreToDisk on a snapshot-less store must fail")
	}
}

// TestLoadFaultsFailClosed corrupts a valid dump four ways; every load must
// return the matching typed error and a nil store.
func TestLoadFaultsFailClosed(t *testing.T) {
	makeDump := func(t *testing.T) string {
		dir := t.TempDir()
		st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 2, 2, 4)))
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, st, 5000)
		if _, err := st.StoreToDisk(dir); err != nil {
			t.Fatal(err)
		}
		st.Close()
		return dir
	}
	// Batch dealing may leave a shard empty; corruption targets need records.
	nonEmptyShard := func(t *testing.T, dir string) string {
		for i := 0; ; i++ {
			p := filepath.Join(dir, persist.ShardFileName(i))
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatalf("no non-empty shard in %s", dir)
			}
			if fi.Size() > 100 {
				return p
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    error
	}{
		{"truncated", func(t *testing.T, dir string) {
			p := nonEmptyShard(t, dir)
			fi, _ := os.Stat(p)
			if err := os.Truncate(p, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}, ErrPersistTruncated},
		{"bitflip", func(t *testing.T, dir string) {
			p := nonEmptyShard(t, dir)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrPersistChecksum},
		{"missing-shard", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, persist.ShardFileName(0))); err != nil {
				t.Fatal(err)
			}
		}, ErrPersistMissingShard},
		{"version-skew", func(t *testing.T, dir string) {
			p := filepath.Join(dir, persist.ShardFileName(0))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[8:], 99)
			binary.LittleEndian.PutUint32(data[64:], crc32.Checksum(data[:64], crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrPersistVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := makeDump(t)
			tc.corrupt(t, dir)
			st, _, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, 1, 2, 2)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if st != nil {
				t.Fatal("fault returned a non-nil store")
			}
		})
	}
	t.Run("type-mismatch", func(t *testing.T) {
		dir := makeDump(t)
		st, _, err := LoadFromDisk[int64, string](dir, persistConfig(persistMachine(t, 1, 2, 2)))
		if !errors.Is(err, ErrPersistTypeMismatch) || st != nil {
			t.Fatalf("got %v (store %v), want ErrPersistTypeMismatch and nil", err, st)
		}
	})
}

// TestWALRecovery is the end-to-end crash-recovery path: journal through a
// dump, mutate past it, recover from dump+WAL, keep journaling in the adopted
// sequence space, and recover again.
func TestWALRecovery(t *testing.T) {
	dumpDir, walDir := t.TempDir(), t.TempDir()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
	cfg.WAL = walDir
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 3000)
	if _, err := st.StoreToDisk(dumpDir); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot mutations: only the WAL holds these.
	for k := int64(50000); k < 50200; k++ {
		st.Insert(k, k*3)
		model[k] = k * 3
	}
	for k := int64(0); k < 100; k++ {
		st.Remove(k)
		delete(model, k)
	}
	st.Close()

	// A fresh store must refuse the leftover log.
	if _, err := NewStore[int64, int64](cfg); !errors.Is(err, ErrPersistWALExists) {
		t.Fatalf("fresh store over existing WAL: %v, want ErrPersistWALExists", err)
	}

	lcfg := persistConfig(persistMachine(t, 1, 2, 2))
	lcfg.WAL = walDir
	st2, ls, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls.WALReplayed != 300 {
		t.Fatalf("replayed %d WAL records, want 300 (200 inserts + 100 removes)", ls.WALReplayed)
	}
	checkStoreModel(t, st2, model)

	// The recovered store journals into the same log and sequence space.
	for k := int64(60000); k < 60050; k++ {
		st2.Insert(k, k*3)
		model[k] = k * 3
	}
	st2.Close()
	st3, ls3, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls3.WALReplayed != 350 {
		t.Fatalf("second recovery replayed %d records, want 350", ls3.WALReplayed)
	}
	checkStoreModel(t, st3, model)

	// A dump prunes the log: recovery from the new dump replays nothing.
	dumpDir2 := t.TempDir()
	if _, err := st3.StoreToDisk(dumpDir2); err != nil {
		t.Fatal(err)
	}
	st3.Close()
	st4, ls4, err := LoadFromDisk[int64, int64](dumpDir2, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls4.WALReplayed != 0 {
		t.Fatalf("post-dump recovery replayed %d records, want 0 (log pruned)", ls4.WALReplayed)
	}
	checkStoreModel(t, st4, model)
	st4.Close()
}

// TestWALRemoveMinRecovery: priority-queue pops after a dump are journaled
// like removes, so recovery does not bring the popped keys back.
func TestWALRemoveMinRecovery(t *testing.T) {
	dumpDir, walDir := t.TempDir(), t.TempDir()
	cfg := persistConfig(persistMachine(t, 1, 2, 2))
	cfg.WAL = walDir
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 100)
	if _, err := st.StoreToDisk(dumpDir); err != nil {
		t.Fatal(err)
	}
	st.Do(func(h *Handle[int64, int64]) {
		for i := 0; i < 10; i++ {
			pop := h.RemoveMin
			if i%2 == 1 {
				pop = func() (int64, int64, bool) { return h.RemoveMinRelaxed(2) }
			}
			k, _, ok := pop()
			if !ok {
				t.Fatalf("pop %d found the store empty", i)
			}
			delete(model, k)
		}
	})
	st.Close()

	st2, ls, err := LoadFromDisk[int64, int64](dumpDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ls.WALReplayed != 10 {
		t.Fatalf("replayed %d WAL records, want 10 pops", ls.WALReplayed)
	}
	checkStoreModel(t, st2, model)
}

// TestWALTornTailRecovery: a crash mid-append leaves a partial record; the
// load must truncate it away and succeed.
func TestWALTornTailRecovery(t *testing.T) {
	dumpDir, walDir := t.TempDir(), t.TempDir()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
	cfg.WAL = walDir
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 1000)
	if _, err := st.StoreToDisk(dumpDir); err != nil {
		t.Fatal(err)
	}
	st.Insert(90001, 1)
	model[90001] = 1
	st.Close()

	walPath := filepath.Join(walDir, persist.WALFileName)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 77, 3}) // a torn insert record
	f.Close()

	lcfg := persistConfig(persistMachine(t, 1, 2, 2))
	lcfg.WAL = walDir
	st2, ls, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
	if err != nil {
		t.Fatalf("torn WAL tail must recover: %v", err)
	}
	defer st2.Close()
	if ls.WALDiscardedBytes != 3 || ls.WALReplayed != 1 {
		t.Fatalf("recovery stats %+v, want 3 discarded bytes and 1 replayed record", ls)
	}
	checkStoreModel(t, st2, model)
}

// TestWALLineageMismatch: a log journaling a different store's sequence space
// must be rejected, not replayed.
func TestWALLineageMismatch(t *testing.T) {
	dumpDir, walDirA, walDirB := t.TempDir(), t.TempDir(), t.TempDir()
	cfgA := persistConfig(persistMachine(t, 2, 2, 4))
	cfgA.WAL = walDirA
	stA, err := NewStore[int64, int64](cfgA)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, stA, 500)
	if _, err := stA.StoreToDisk(dumpDir); err != nil {
		t.Fatal(err)
	}
	stA.Close()

	cfgB := persistConfig(persistMachine(t, 2, 2, 4))
	cfgB.WAL = walDirB
	stB, err := NewStore[int64, int64](cfgB)
	if err != nil {
		t.Fatal(err)
	}
	stB.Insert(1, 1)
	stB.Close()

	lcfg := persistConfig(persistMachine(t, 1, 2, 2))
	lcfg.WAL = walDirB // B's log against A's dump
	st, _, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
	if !errors.Is(err, ErrPersistWALMismatch) || st != nil {
		t.Fatalf("got %v (store %v), want ErrPersistWALMismatch and nil", err, st)
	}
}

// TestWALMissingStartsFresh: loading with a WAL directory that has no log yet
// starts one — the dump alone defines the state, and journaling begins.
func TestWALMissingStartsFresh(t *testing.T) {
	dumpDir := t.TempDir()
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 2, 2, 4)))
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 500)
	if _, err := st.StoreToDisk(dumpDir); err != nil {
		t.Fatal(err)
	}
	st.Close()

	walDir := t.TempDir()
	lcfg := persistConfig(persistMachine(t, 1, 2, 2))
	lcfg.WAL = walDir
	st2, ls, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ls.WALReplayed != 0 {
		t.Fatalf("fresh log replayed %d records", ls.WALReplayed)
	}
	st2.Insert(7777, 7)
	model[7777] = 7
	st2.Close()
	// The fresh log extends the dump's sequence space: recovery replays it.
	st3, ls3, err := LoadFromDisk[int64, int64](dumpDir, lcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if ls3.WALReplayed != 1 {
		t.Fatalf("replayed %d records from the started log, want 1", ls3.WALReplayed)
	}
	checkStoreModel(t, st3, model)
}

// TestTorturePersist is the race-persist target: background maintenance,
// reclamation, and the hash index all on, writer and reader goroutines
// churning, while dumps run back to back and each completed dump is loaded
// and validated. Run under -race via `make race-persist`.
func TestTorturePersist(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
	cfg.Maintenance = MaintBackground
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := fillStore(t, st, 4000)

	const churnSpace = 2000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := int64(100000 + (i*13+w*719)%churnSpace)
				switch i % 3 {
				case 0:
					st.Insert(k, k)
				case 1:
					st.Remove(k)
				case 2:
					st.Get(k)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			st.Get(int64(i % 4000))
			st.RangeScan(int64(i%4000), int64(i%4000)+32, func(int64, int64) bool { return true })
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	dirs := []string{dirA, dirB}
	for i := 0; time.Now().Before(deadline); i++ {
		dir := dirs[i%2]
		ds, err := st.StoreToDisk(dir)
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		if ds.Records < uint64(len(base)) {
			t.Fatalf("dump %d captured %d records, fewer than the stable base %d", i, ds.Records, len(base))
		}
		st2, _, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, 1, 2, 2)))
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		for k, v := range base {
			if got, ok := st2.Get(k); !ok || got != v {
				st2.Close()
				t.Fatalf("load %d: base key %d = (%d, %v)", i, k, got, ok)
			}
		}
		if err := st2.Map().SharedStructure().Validate(); err != nil {
			st2.Close()
			t.Fatalf("load %d: %v", i, err)
		}
		st2.Close()
	}
	stop.Store(true)
	wg.Wait()
	st.Close()
}
