package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"iter"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// --- codec ---

func roundTrip[T any](t *testing.T, v T) {
	t.Helper()
	c := newCodec[T]()
	enc := c.enc(nil, v)
	got, err := c.dec(enc)
	if err != nil {
		t.Fatalf("dec(%v): %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip: got %v, want %v", got, v)
	}
}

type gobValue struct {
	A int
	B string
	C []float64
}

func TestCodecRoundTrip(t *testing.T) {
	roundTrip(t, int(-42))
	roundTrip(t, int(math.MaxInt64))
	roundTrip(t, int8(-8))
	roundTrip(t, int16(-1600))
	roundTrip(t, int32(-320000))
	roundTrip(t, int64(math.MinInt64))
	roundTrip(t, uint(42))
	roundTrip(t, uint8(255))
	roundTrip(t, uint16(65535))
	roundTrip(t, uint32(1<<31))
	roundTrip(t, uint64(math.MaxUint64))
	roundTrip(t, uintptr(0xdeadbeef))
	roundTrip(t, float32(-1.5))
	roundTrip(t, float64(math.Pi))
	roundTrip(t, "hello, 世界")
	roundTrip(t, "")
	roundTrip(t, []byte{0, 1, 2, 255})
	roundTrip(t, true)
	roundTrip(t, false)
	roundTrip(t, gobValue{A: 7, B: "x", C: []float64{1, 2}})
}

func TestCodecKindsDiffer(t *testing.T) {
	if newCodec[int]().kind == newCodec[int64]().kind {
		t.Fatal("int and int64 share a kind code")
	}
	if newCodec[string]().kind != kindString {
		t.Fatal("string kind")
	}
	if newCodec[gobValue]().kind != kindGob {
		t.Fatal("struct should fall back to gob")
	}
}

func TestCodecFixedWidthRejectsBadLength(t *testing.T) {
	c := newCodec[int64]()
	if _, err := c.dec([]byte{1, 2, 3}); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

// --- header ---

func TestHeaderRoundTrip(t *testing.T) {
	h := header{
		topo:    Topology{Sockets: 4, CoresPerSocket: 6, ThreadsPerCore: 2, Threads: 16},
		keyKind: kindInt64, valKind: kindString,
		baseSeq: 1234, lineage: 0xabcdef, keyCount: 99,
	}
	b := h.encode()
	got, err := decodeHeader(b[:], "test")
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v, want %+v", got, h)
	}
}

func TestHeaderFaults(t *testing.T) {
	h := header{keyKind: kindInt64, valKind: kindString}
	good := h.encode()

	short := good[:40]
	if _, err := decodeHeader(short, "t"); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v, want ErrTruncated", err)
	}

	magic := good
	magic[0] = 'X'
	if _, err := decodeHeader(magic[:], "t"); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: %v, want ErrFormat", err)
	}

	flipped := good
	flipped[16] ^= 0x10
	if _, err := decodeHeader(flipped[:], "t"); !errors.Is(err, ErrChecksum) {
		t.Errorf("bit flip: %v, want ErrChecksum", err)
	}

	skew := good
	binary.LittleEndian.PutUint32(skew[8:], DumpVersion+1)
	binary.LittleEndian.PutUint32(skew[56:], crc32.Checksum(skew[:56], castagnoli))
	if _, err := decodeHeader(skew[:], "t"); !errors.Is(err, ErrVersion) {
		t.Errorf("version skew: %v, want ErrVersion", err)
	}
}

// --- dump / load ---

// dumpKeys dumps m's records into dir in the order keys lists them.
func dumpKeys(t *testing.T, dir string, m map[int64]string, keys []int64) DumpStats {
	t.Helper()
	stats, err := Dump[int64, string](dir, func(fn func(int64, string) bool) {
		for _, k := range keys {
			if !fn(k, m[k]) {
				return
			}
		}
	}, DumpOptions{BaseSeq: 7, Lineage: 0x1234,
		Topo: Topology{Sockets: 2, CoresPerSocket: 2, ThreadsPerCore: 1, Threads: 4}})
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return stats
}

// dumpMap dumps m, sorted by key, into dir.
func dumpMap(t *testing.T, dir string, m map[int64]string) DumpStats {
	t.Helper()
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return dumpKeys(t, dir, m, keys)
}

// loadMap loads dir into a fresh map, checking that the stream is strictly
// increasing.
func loadMap(t *testing.T, dir string) (map[int64]string, LoadStats, error) {
	t.Helper()
	got := map[int64]string{}
	stats, err := Load[int64, string](dir, func(_ uint64, records iter.Seq2[int64, string]) error {
		prev := int64(math.MinInt64)
		for k, v := range records {
			if len(got) > 0 && k <= prev {
				return fmt.Errorf("key %d after %d", k, prev)
			}
			got[k] = v
			prev = k
		}
		return nil
	})
	return got, stats, err
}

func testMap(n int) map[int64]string {
	m := make(map[int64]string, n)
	for i := 0; i < n; i++ {
		m[int64(i*7)] = fmt.Sprintf("value-%d", i)
	}
	return m
}

// TestAppendField: the patched one-byte prefix and the shifted long-field
// path both produce a uvarint length followed by the encoding, at every
// prefix width.
func TestAppendField(t *testing.T) {
	c := newCodec[string]()
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 1 << 21} {
		v := strings.Repeat("x", n)
		want := append(binary.AppendUvarint([]byte("head"), uint64(n)), v...)
		if got := appendField([]byte("head"), c, v); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte field: got %d bytes %q..., want %d bytes %q...", n, len(got), got[:min(len(got), 8)], len(want), want[:min(len(want), 8)])
		}
	}
}

// TestDumpLoadRoundTrip round-trips 5000 records, a partial last batch
// included, whose values span one-, two- and three-byte length prefixes.
// Each case dumps into a directory that already holds a shard set of the
// retired multi-file format with that many shards (none for shards=0): the
// dump writes dump.sgd beside them and the load reads only dump.sgd.
func TestDumpLoadRoundTrip(t *testing.T) {
	for _, shards := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			writeOldShardSet(t, dir, shards)
			want := testMap(5000)
			want[7*100] = strings.Repeat("v", 200)
			want[7*2000] = strings.Repeat("w", 20000)
			ds := dumpMap(t, dir, want)
			if ds.Records != uint64(len(want)) {
				t.Fatalf("dump stats %+v", ds)
			}
			got, ls, err := loadMap(t, dir)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded %d records, want %d; maps differ", len(got), len(want))
			}
			if ls.BaseSeq != 7 || ls.Lineage != 0x1234 || ls.Records != ds.Records {
				t.Fatalf("load stats %+v", ls)
			}
			if ls.Source.Sockets != 2 || ls.Source.Threads != 4 {
				t.Fatalf("source topology %+v", ls.Source)
			}
			if fi, err := os.Stat(dumpPath(dir)); err != nil || ls.Bytes != ds.Bytes || uint64(fi.Size()) != ds.Bytes {
				t.Fatalf("load read %d bytes, dump wrote %d, file holds %v (%v)", ls.Bytes, ds.Bytes, fi, err)
			}
		})
	}
}

// writeOldShardSet writes n shard files of the retired multi-file format
// into dir: each a version-1 header (shard i of n, no records) and trailer.
func writeOldShardSet(t *testing.T, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		b := make([]byte, 68)
		copy(b, dumpMagic)
		binary.LittleEndian.PutUint32(b[8:], 1)
		binary.LittleEndian.PutUint32(b[12:], uint32(i))
		binary.LittleEndian.PutUint32(b[16:], uint32(n))
		binary.LittleEndian.PutUint32(b[64:], crc32.Checksum(b[:64], castagnoli))
		b = append(append(b, trailerMagic...), make([]byte, 12)...)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("shard-%04d.sgd", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDumpEmpty(t *testing.T) {
	dir := t.TempDir()
	ds := dumpMap(t, dir, nil)
	if ds.Records != 0 {
		t.Fatalf("dump stats %+v", ds)
	}
	got, _, err := loadMap(t, dir)
	if err != nil || len(got) != 0 {
		t.Fatalf("load: %v, %d records", err, len(got))
	}
}

// TestDumpReusesBatches checks that the writer hands written batches back to
// the walker: a dump of twice the keys may allocate only a constant more,
// not one 512-record batch per hand-off (128 more from 2^16 to 2^17 keys).
func TestDumpReusesBatches(t *testing.T) {
	dir := t.TempDir()
	allocs := func(n int64) float64 {
		iter := func(fn func(int64, int64) bool) {
			for k := int64(0); k < n; k++ {
				if !fn(k, k) {
					return
				}
			}
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Dump(dir, iter, DumpOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<16), allocs(1<<17)
	if large-small > 32 {
		t.Fatalf("a 2^17-key dump allocates %.0f times, a 2^16-key dump %.0f: batches are not reused", large, small)
	}
}

func dumpPath(dir string) string { return filepath.Join(dir, DumpFileName) }

func TestLoadFaultTruncated(t *testing.T) {
	dir := t.TempDir()
	dumpMap(t, dir, testMap(2000))
	p := dumpPath(dir)
	fi, _ := os.Stat(p)
	if err := os.Truncate(p, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadMap(t, dir); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

func TestLoadFaultBitFlip(t *testing.T) {
	dir := t.TempDir()
	dumpMap(t, dir, testMap(2000))
	p := dumpPath(dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside a fixed-width key payload (the first record's key
	// bytes start right after the header and a 1-byte length prefix), so the
	// length structure stays intact and the corruption is caught by the
	// stream CRC.
	data[headerSize+1+3] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadMap(t, dir); !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
}

func TestLoadFaultEmptyDir(t *testing.T) {
	if _, _, err := loadMap(t, t.TempDir()); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}

func TestLoadFaultVersionSkew(t *testing.T) {
	dir := t.TempDir()
	dumpMap(t, dir, testMap(100))
	p := dumpPath(dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// A future version with a valid header CRC: only the version check can
	// reject it.
	binary.LittleEndian.PutUint32(data[8:], DumpVersion+3)
	binary.LittleEndian.PutUint32(data[56:], crc32.Checksum(data[:56], castagnoli))
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadMap(t, dir); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestLoadFaultTypeMismatch(t *testing.T) {
	dir := t.TempDir()
	dumpMap(t, dir, testMap(100))
	_, err := Load[string, string](dir, func(uint64, iter.Seq2[string, string]) error { return nil })
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("got %v, want ErrTypeMismatch", err)
	}
}

// TestLoadFaultUnordered: Dump trusts its walk to ascend. A file written
// from a walk that does not is sealed like any other, so only Load's order
// check can reject it: a descending walk, and a walk that repeats a batch.
func TestLoadFaultUnordered(t *testing.T) {
	var descending, repeated []int64
	for k := int64(999); k >= 0; k-- {
		descending = append(descending, k)
	}
	for r := 0; r < 2; r++ {
		for k := int64(0); k < dumpBatchSize; k++ {
			repeated = append(repeated, k)
		}
	}
	for name, keys := range map[string][]int64{"descending": descending, "repeated": repeated} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m := map[int64]string{}
			for _, k := range keys {
				m[k] = "v"
			}
			dumpKeys(t, dir, m, keys)
			if _, _, err := loadMap(t, dir); !errors.Is(err, ErrFormat) {
				t.Fatalf("got %v, want ErrFormat", err)
			}
		})
	}
}

func TestLoadFaultTrailingGarbage(t *testing.T) {
	dir := t.TempDir()
	dumpMap(t, dir, testMap(100))
	f, err := os.OpenFile(dumpPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("junk"))
	f.Close()
	if _, _, err := loadMap(t, dir); !errors.Is(err, ErrFormat) {
		t.Fatalf("got %v, want ErrFormat", err)
	}
}

// TestLoadNoPartialSinkOnHeaderFault: header validation happens before any
// record is decoded, so a file with a corrupt header never calls build.
func TestLoadNoPartialSinkOnHeaderFault(t *testing.T) {
	dir := t.TempDir()
	dumpMap(t, dir, testMap(1000))
	data, err := os.ReadFile(dumpPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[48] ^= 0x01 // the header's record count
	if err := os.WriteFile(dumpPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	_, err = Load[int64, string](dir, func(uint64, iter.Seq2[int64, string]) error { calls++; return nil })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("got %v, want ErrChecksum", err)
	}
	if calls != 0 {
		t.Fatalf("build called %d times before header validation failed", calls)
	}
}

// --- WAL ---

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFileName)
	w, err := CreateWAL[int64, string](path, 0xfeed, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	w.Insert(1, 10, "a")
	w.Insert(2, 20, "b")
	w.Remove(3, 10)
	w.Insert(4, 30, "c")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, recs, rstats, err := OpenWAL[int64, string](path, 0xfeed, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rstats.Truncated || rstats.DiscardedBytes != 0 {
		t.Fatalf("clean log recovered as torn: %+v", rstats)
	}
	want := []WALRecord[int64, string]{
		{Op: WALInsert, Seq: 1, Key: 10, Value: "a"},
		{Op: WALInsert, Seq: 2, Key: 20, Value: "b"},
		{Op: WALRemove, Seq: 3, Key: 10},
		{Op: WALInsert, Seq: 4, Key: 30, Value: "c"},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("recovered %+v,\nwant %+v", recs, want)
	}

	// The reopened log keeps appending.
	w2.Insert(5, 40, "d")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err = OpenWAL[int64, string](path, 0xfeed, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].Key != 40 {
		t.Fatalf("append after reopen: %+v", recs)
	}
}

func TestWALTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFileName)
	w, err := CreateWAL[int64, string](path, 1, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	w.Insert(1, 10, "a")
	w.Insert(2, 20, "b")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	clean := fi.Size()

	// Crash mid-append: a partial record at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{byte(WALInsert), 9, 0, 0})
	f.Close()

	w2, recs, rstats, err := OpenWAL[int64, string](path, 1, SyncNever)
	if err != nil {
		t.Fatalf("torn tail must recover, got %v", err)
	}
	defer w2.Close()
	if !rstats.Truncated || rstats.DiscardedBytes != 4 {
		t.Fatalf("recover stats %+v", rstats)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	if fi, _ := os.Stat(path); fi.Size() != clean {
		t.Fatalf("file not truncated back to %d: %d", clean, fi.Size())
	}
}

// TestWALTornMiddle: corruption before the tail discards everything from the
// first invalid record (the documented append-only contract).
func TestWALTornMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFileName)
	w, err := CreateWAL[int64, string](path, 1, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	w.Insert(1, 10, "a")
	w.Flush()
	fi, _ := os.Stat(path)
	firstEnd := fi.Size()
	w.Insert(2, 20, "b")
	w.Insert(3, 30, "c")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	data[firstEnd+5] ^= 0xff // corrupt the second record
	os.WriteFile(path, data, 0o644)

	_, recs, rstats, err := OpenWAL[int64, string](path, 1, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !rstats.Truncated {
		t.Fatalf("recovered %d records (stats %+v), want 1 + truncation", len(recs), rstats)
	}
}

func TestWALFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALFileName)
	w, err := CreateWAL[int64, string](path, 0xaa, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	w.Insert(1, 1, "x")
	w.Close()

	if _, err := CreateWAL[int64, string](path, 0xbb, SyncNever); !errors.Is(err, ErrWALExists) {
		t.Errorf("create over existing: %v, want ErrWALExists", err)
	}
	if _, _, _, err := OpenWAL[int64, string](path, 0xbb, SyncNever); !errors.Is(err, ErrWALMismatch) {
		t.Errorf("lineage skew: %v, want ErrWALMismatch", err)
	}
	if _, _, _, err := OpenWAL[int64, int64](path, 0xaa, SyncNever); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("type skew: %v, want ErrTypeMismatch", err)
	}
	if _, _, _, err := OpenWAL[int64, string](filepath.Join(dir, "absent.sgw"), 0xaa, SyncNever); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}

	data, _ := os.ReadFile(path)
	data[3] = 'X'
	bad := filepath.Join(dir, "bad.sgw")
	os.WriteFile(bad, data, 0o644)
	if _, _, _, err := OpenWAL[int64, string](bad, 0xaa, SyncNever); !errors.Is(err, ErrFormat) {
		t.Errorf("bad magic: %v, want ErrFormat", err)
	}
}

func TestWALPrune(t *testing.T) {
	path := filepath.Join(t.TempDir(), WALFileName)
	w, err := CreateWAL[int64, string](path, 7, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		w.Insert(i, int64(i), "v")
	}
	if err := w.Prune(6); err != nil {
		t.Fatal(err)
	}
	// Appends continue into the pruned log.
	w.Insert(11, 11, "v")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := OpenWAL[int64, string](path, 7, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{7, 8, 9, 10, 11}) {
		t.Fatalf("post-prune seqs %v", seqs)
	}
}
