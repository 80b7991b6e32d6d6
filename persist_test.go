package layeredsg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"layeredsg/internal/obs"
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
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 2, 2, 4)))
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

	st2, ls, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, 1, 2, 2)))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if ls.Records != uint64(len(model)) || ls.BaseSeq != ds.BaseSeq {
		t.Fatalf("load stats %+v, want %d records at seq %d", ls, len(model), ds.BaseSeq)
	}
	checkStoreModel(t, st2, model)
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
	if _, err := st.StoreToDisk(dir); err != nil {
		t.Fatal(err)
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

// castagnoli is the CRC table dump files are sealed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The dump file's layout as these tests read and forge it: a 60-byte header
// with the record count at 48 and its CRC at 56, fixed-width records of a
// 1-byte length prefix before each 8-byte word, and a 20-byte trailer.
const (
	dumpHeaderSize = 60
	dumpRecordSize = 18
)

func dumpFile(dir string) string { return filepath.Join(dir, persist.DumpFileName) }

// gatherDump decodes every record of an int64→int64 dump.
func gatherDump(t *testing.T, dir string) (keys, vals []int64) {
	t.Helper()
	data, err := os.ReadFile(dumpFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	for off := dumpHeaderSize; off < len(data)-20; off += dumpRecordSize {
		keys = append(keys, int64(binary.LittleEndian.Uint64(data[off+1:])))
		vals = append(vals, int64(binary.LittleEndian.Uint64(data[off+10:])))
	}
	return keys, vals
}

// rewriteDump replaces the dump's records with keys and vals, keeping its
// header but its record count, and re-seals header and stream CRCs, so the
// file passes every integrity check.
func rewriteDump(t *testing.T, dir string, keys, vals []int64) {
	t.Helper()
	data, err := os.ReadFile(dumpFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:dumpHeaderSize]...)
	binary.LittleEndian.PutUint64(out[48:], uint64(len(keys)))
	binary.LittleEndian.PutUint32(out[56:], crc32.Checksum(out[:56], castagnoli))
	for j := range keys {
		out = append(out, 8)
		out = binary.LittleEndian.AppendUint64(out, uint64(keys[j]))
		out = append(out, 8)
		out = binary.LittleEndian.AppendUint64(out, uint64(vals[j]))
	}
	stream := crc32.Checksum(out[dumpHeaderSize:], castagnoli)
	out = append(out, "SGEND001"...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(keys)))
	out = binary.LittleEndian.AppendUint32(out, stream)
	if err := os.WriteFile(dumpFile(dir), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadFaultsFailClosed corrupts a valid dump five ways and loads it with
// the wrong value type; every load must return the matching typed error and
// a nil store.
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
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
		want    error
	}{
		{"truncated", func(t *testing.T, dir string) {
			fi, _ := os.Stat(dumpFile(dir))
			if err := os.Truncate(dumpFile(dir), fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		}, ErrPersistTruncated},
		{"bitflip", func(t *testing.T, dir string) {
			data, err := os.ReadFile(dumpFile(dir))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(dumpFile(dir), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrPersistChecksum},
		// Built by hand with re-sealed CRCs, so only the order check can
		// catch it.
		{"unordered-shard", func(t *testing.T, dir string) {
			keys, vals := gatherDump(t, dir)
			keys[10], keys[11] = keys[11], keys[10]
			vals[10], vals[11] = vals[11], vals[10]
			rewriteDump(t, dir, keys, vals)
		}, ErrPersistFormat},
		{"version-skew", func(t *testing.T, dir string) {
			data, err := os.ReadFile(dumpFile(dir))
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint32(data[8:], 99)
			binary.LittleEndian.PutUint32(data[56:], crc32.Checksum(data[:56], castagnoli))
			if err := os.WriteFile(dumpFile(dir), data, 0o644); err != nil {
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

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDumpPublishStrayTemp: a dump that crashed before its rename leaves a
// partial temporary beside the previous dump. A load reads the previous dump
// exactly, and the next dump overwrites the temporary and replaces the dump,
// leaving one file.
func TestDumpPublishStrayTemp(t *testing.T) {
	dir := t.TempDir()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := fillStore(t, st, 3000)
	ds, err := st.StoreToDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	data, err := os.ReadFile(dumpFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	// The crashed dump's temporary: its placeholder header and part of its
	// record stream, with no trailer.
	if err := os.WriteFile(dumpFile(dir)+".tmp", data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, ls, err := LoadFromDisk[int64, int64](dir, cfg)
	if err != nil {
		t.Fatalf("load beside a stray temporary: %v", err)
	}
	if ls.Records != ds.Records || ls.BaseSeq != ds.BaseSeq || ls.Bytes != ds.Bytes {
		t.Fatalf("load stats %+v, want the previous dump's %+v", ls, ds)
	}
	checkStoreModel(t, st2, old)
	model := fillStore(t, st2, 5000)
	if _, err := st2.StoreToDisk(dir); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if names := dirNames(t, dir); len(names) != 1 || names[0] != persist.DumpFileName {
		t.Fatalf("dump dir holds %v, want only %s", names, persist.DumpFileName)
	}
	st3, _, err := LoadFromDisk[int64, int64](dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	checkStoreModel(t, st3, model)
}

// TestDumpPublishFailureKeepsPrevious: a dump that fails before its rename
// leaves the previous dump in place and the WAL unpruned, so recovery still
// returns everything the store acknowledged.
func TestDumpPublishFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
	cfg.WAL = t.TempDir()
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := fillStore(t, st, 3000)
	ds, err := st.StoreToDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(10000); k < 10200; k++ {
		st.Insert(k, k*3)
		model[k] = k * 3
	}
	// A directory at the temporary's name fails the dump's create, with the
	// snapshot walk under way.
	if err := os.Mkdir(dumpFile(dir)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := st.StoreToDisk(dir); err == nil {
		t.Fatal("dump over a directory at the temporary's name succeeded")
	}
	st.Close()

	st2, ls, err := LoadFromDisk[int64, int64](dir, cfg)
	if err != nil {
		t.Fatalf("load after a failed dump: %v", err)
	}
	defer st2.Close()
	if ls.Records != ds.Records || ls.BaseSeq != ds.BaseSeq || ls.WALReplayed != 200 {
		t.Fatalf("load stats %+v, want the previous dump (%d records at seq %d) plus 200 replayed records",
			ls, ds.Records, ds.BaseSeq)
	}
	checkStoreModel(t, st2, model)
}

// TestLoadOldShardSetFailsClosed: a directory holding only a shard set of
// the retired multi-file format has no dump file, so a load fails as a
// missing file and returns no store.
func TestLoadOldShardSetFailsClosed(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		// A version-1 shard header (shard i of 2, no records) and trailer.
		b := make([]byte, 68)
		copy(b, "SGDUMP01")
		binary.LittleEndian.PutUint32(b[8:], 1)
		binary.LittleEndian.PutUint32(b[12:], uint32(i))
		binary.LittleEndian.PutUint32(b[16:], 2)
		binary.LittleEndian.PutUint32(b[64:], crc32.Checksum(b[:64], castagnoli))
		b = append(append(b, "SGEND001"...), make([]byte, 12)...)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.sgd", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := LoadFromDisk[int64, int64](dir, persistConfig(persistMachine(t, 1, 2, 2)))
	if !errors.Is(err, fs.ErrNotExist) || st != nil {
		t.Fatalf("got %v (store %v), want fs.ErrNotExist and nil", err, st)
	}
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
	// Replay deals records over the stripes: the fresh keys' nodes were
	// allocated by more than one handle.
	owners := map[int32]int{}
	for n := st2.Map().SharedStructure().BottomHead().RawNext(0); n.IsData(); n = n.RawNext(0) {
		if n.Key() >= 50000 && n.Key() < 50200 {
			owners[n.OwnerThread()]++
		}
	}
	if len(owners) < 2 {
		t.Fatalf("replayed fresh keys by owning stripe: %v, want more than one stripe", owners)
	}

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

// TestTorturePersist is the race-persist target: reclamation passes and the
// hash index both on, writer and reader goroutines churning, while dumps run
// back to back and each completed dump is loaded and validated. Run under
// -race via `make race-persist`.
func TestTorturePersist(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	cfg := persistConfig(persistMachine(t, 2, 2, 4))
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

// TestLoadDealsEveryStripe dumps keys inserted through one handle and
// reloads them on a 2×4 machine: the load deals keys over every stripe, so
// each local structure holds an even share, and an absent-key Insert from
// any stripe jumps in from its own local structure instead of descending
// from the head. An absent-key Get does not descend at all: the shared index,
// filled by the load, proves the key absent. The inserted keys are removed
// again.
func TestLoadDealsEveryStripe(t *testing.T) {
	const n = 1 << 14
	for _, tc := range []struct {
		name string
		kind Kind
	}{
		{"lazy", LazyLayeredSG},
		{"lazy-sparse", LazyLayeredSSG},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := persistConfig(persistMachine(t, 1, 2, 2))
			cfg.Kind = tc.kind
			st, err := NewStore[int64, int64](cfg)
			if err != nil {
				t.Fatal(err)
			}
			model := map[int64]int64{}
			st.Do(func(h *Handle[int64, int64]) {
				for i := int64(0); i < n; i++ {
					h.Insert(2*i, i)
					model[2*i] = i
				}
			})
			if _, err := st.StoreToDisk(dir); err != nil {
				t.Fatal(err)
			}
			st.Close()

			tracer := NewTracer(TracerConfig{Name: "load-deal-" + tc.name})
			defer tracer.Close()
			lcfg := persistConfig(persistMachine(t, 2, 4, 8))
			lcfg.Kind, lcfg.Tracer = tc.kind, tracer
			st2, _, err := LoadFromDisk[int64, int64](dir, lcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			m := st2.Map()
			for s := 0; s < m.Threads(); s++ {
				got := m.Handle(s).LocalTreeLen()
				if tc.kind == LazyLayeredSSG {
					if got == 0 {
						t.Fatalf("stripe %d holds no local entries", s)
					}
				} else if share := n / m.Threads(); got < share-1 || got > share+1 {
					t.Fatalf("stripe %d holds %d local entries, want %d ± 1", s, got, share)
				}
			}

			SetObservability(true)
			defer SetObservability(false)
			const perStripe = 64
			// Odd keys in the loaded range's upper half, distinct across
			// stripes (97 is odd, so i → i·97 mod n/2 is a bijection).
			absent := func(s int, i int64) int64 { return n + 2*((int64(s)*perStripe+i)*97%(n/2)) + 1 }
			for s := 0; s < m.Threads(); s++ {
				for i := int64(0); i < perStripe; i++ {
					if _, ok := st2.Get(absent(s, i)); ok {
						t.Fatalf("Get(%d) found an absent key", absent(s, i))
					}
				}
			}
			if get := tracer.Snapshot().Ops[obs.OpGet.String()]; get.Origins[obs.OriginLocalHit.String()] != get.Count {
				t.Fatalf("absent-key Gets: origins %v of %d, want every one a local-hit (a proven miss)", get.Origins, get.Count)
			}
			for _, insert := range []bool{true, false} {
				for s := 0; s < m.Threads(); s++ {
					h := m.Handle(s)
					h.BeginExclusive()
					for i := int64(0); i < perStripe; i++ {
						if insert && !h.Insert(absent(s, i), 0) {
							t.Fatalf("stripe %d: Insert(%d) of an absent key = false", s, absent(s, i))
						}
						if !insert && !h.Remove(absent(s, i)) {
							t.Fatalf("stripe %d: Remove(%d) of an inserted key = false", s, absent(s, i))
						}
					}
					h.EndExclusive()
				}
				if insert {
					ins := tracer.Snapshot().Ops[obs.OpInsert.String()]
					if head, jump := ins.Origins[obs.OriginHead.String()], ins.Origins[obs.OriginLocalJump.String()]; head != 0 || jump != uint64(perStripe*m.Threads()) {
						t.Fatalf("absent-key Inserts: %d from the head, %d local jumps; want 0 and %d", head, jump, perStripe*m.Threads())
					}
				}
			}
			checkStoreModel(t, st2, model)
		})
	}
}

// TestLoadIntoEveryKind loads one lazy dump into each of the six kinds, then
// checks the store against the model before and after a few mutations: the
// build links the linked list, single skip list and sparse shapes without
// the insert protocol. Every kind runs the one (inline) maintenance path.
func TestLoadIntoEveryKind(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore[int64, int64](persistConfig(persistMachine(t, 2, 2, 4)))
	if err != nil {
		t.Fatal(err)
	}
	base := fillStore(t, st, 5000)
	for k := int64(0); k < 5000; k += 7 {
		st.Remove(k)
		delete(base, k)
	}
	if _, err := st.StoreToDisk(dir); err != nil {
		t.Fatal(err)
	}
	st.Close()

	for _, kind := range []Kind{LayeredSG, LazyLayeredSG, LayeredSSG, LazyLayeredSSG, LayeredLL, LayeredSL} {
		t.Run(fmt.Sprintf("%v/inline", kind), func(t *testing.T) {
			cfg := persistConfig(persistMachine(t, 2, 2, 4))
			cfg.Kind = kind
			st2, _, err := LoadFromDisk[int64, int64](dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			model := make(map[int64]int64, len(base))
			for k, val := range base {
				model[k] = val
				if got, ok := st2.Get(k); !ok || got != val {
					t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, got, ok, val)
				}
			}
			checkStoreModel(t, st2, model)
			for k := int64(0); k < 5100; k += 11 {
				_, present := model[k]
				if k%2 == 0 {
					if got := st2.Remove(k); got != present {
						t.Fatalf("Remove(%d) = %v with present=%v", k, got, present)
					}
					delete(model, k)
				} else {
					if got := st2.Insert(k, -k); got == present {
						t.Fatalf("Insert(%d) = %v with present=%v", k, got, present)
					}
					if !present {
						model[k] = -k
					}
				}
			}
			for k, val := range model {
				if got, ok := st2.Get(k); !ok || got != val {
					t.Fatalf("after mutations: Get(%d) = (%d, %v), want (%d, true)", k, got, ok, val)
				}
			}
			// Close quiesces background helpers still linking the new
			// nodes' upper levels, which Validate needs.
			st2.Close()
			checkModel(t, kind, st2.Map(), model)
		})
	}
}

// BenchmarkLoadFromDisk times LoadFromDisk of a 2^18-key dump on a 2×4
// machine, in keys/s.
func BenchmarkLoadFromDisk(b *testing.B) {
	const n = 1 << 18
	dir := b.TempDir()
	cfg := persistConfig(persistMachine(b, 2, 4, 8))
	st, err := NewStore[int64, int64](cfg)
	if err != nil {
		b.Fatal(err)
	}
	fillStore(b, st, n)
	if _, err := st.StoreToDisk(dir); err != nil {
		b.Fatal(err)
	}
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2, _, err := LoadFromDisk[int64, int64](dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st2.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkGetMissAfterLoad measures absent-key Store.Get from 2 goroutines
// on a 2^16-key store on a 2×4 machine: one reloaded from a dump of keys
// inserted through one handle, and one filled by rotation through its live
// handles, the spread a load should match. The keys are integers, so each
// Get times a proven miss: one index probe, no local floor and no descent,
// whichever way the store was filled.
func BenchmarkGetMissAfterLoad(b *testing.B) {
	const n = 1 << 16
	cfg := persistConfig(persistMachine(b, 2, 4, 8))
	for _, fill := range []string{"loaded", "rotation"} {
		b.Run(fill, func(b *testing.B) {
			st, err := NewStore[int64, int64](cfg)
			if err != nil {
				b.Fatal(err)
			}
			if fill == "rotation" {
				m := st.Map()
				for i := int64(0); i < n; i++ {
					m.Handle(int(i)%m.Threads()).Insert(2*i, i)
				}
			} else {
				st.Do(func(h *Handle[int64, int64]) {
					for i := int64(0); i < n; i++ {
						h.Insert(2*i, i)
					}
				})
				dir := b.TempDir()
				if _, err := st.StoreToDisk(dir); err != nil {
					b.Fatal(err)
				}
				st.Close()
				if st, _, err = LoadFromDisk[int64, int64](dir, cfg); err != nil {
					b.Fatal(err)
				}
			}
			defer st.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < b.N; i += 2 {
						if _, ok := st.Get(2*int64(i*7919%n) + 1); ok {
							panic("absent key found")
						}
					}
				}(g)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
