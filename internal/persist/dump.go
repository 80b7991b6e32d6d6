package persist

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"layeredsg/internal/obs"
)

// The dump side: a sequential snapshot walk feeding a pool of shard writers.
// The walk is inherently sequential (it is an ordered bottom-level traversal),
// so parallelism lives in the writers: record batches are dealt to whichever
// writer is free, each writer owning one shard file and writing its batches
// in walk order, so every shard is an ascending run. Encoding, CRC folding,
// and I/O all happen on the writers.
//
// The directory is replaced near-atomically: every shard is written to a
// temporary name first, and only after all writers succeed are stale shard
// files removed and the temporaries renamed into place. A dump that fails
// leaves the previous dump untouched; a crash between the removes and the
// renames leaves a shard set whose headers disagree, which a load rejects.

// dumpBatchSize is the walker-to-writer hand-off granularity.
const dumpBatchSize = 512

// rec is one key/value pair in flight between the walker and a writer.
type rec[K cmp.Ordered, V any] struct {
	key K
	val V
}

// DumpOptions parameterizes Dump.
type DumpOptions struct {
	// Shards is the number of shard files and concurrent writers (min 1).
	// Callers size it to the writing machine's helper pool or socket count.
	Shards int
	// Topo is the source machine's shape, recorded in every header.
	Topo Topology
	// BaseSeq is the dumped snapshot's sequence.
	BaseSeq uint64
	// Lineage is the source domain's sequence-space identity.
	Lineage uint64
	// Tracer receives dump volume counters; nil for none.
	Tracer *obs.Tracer
}

// DumpStats summarizes one completed dump.
type DumpStats struct {
	// Records and Bytes total what the shard files hold (headers, records,
	// and trailers included in Bytes).
	Records uint64
	Bytes   uint64
	// Shards is the number of shard files written.
	Shards int
	// BaseSeq echoes the dumped snapshot's sequence.
	BaseSeq uint64
	// Elapsed is the dump's wall-clock duration.
	Elapsed time.Duration
}

// Dump writes every record iter yields into dir as a complete shard set. iter
// must call its callback sequentially in strictly increasing key order (a
// snapshot Ascend does). Batches are dealt to whichever writer is free, and
// each writer takes its batches in the order the walk sent them, so the keys
// within every shard ascend too; Load relies on that, merging the shards
// into one ascending stream, and rejects a shard that does not ascend. On
// error the previous dump in dir, if any, is left untouched.
func Dump[K cmp.Ordered, V any](dir string, iter func(fn func(key K, value V) bool), opts DumpOptions) (DumpStats, error) {
	start := time.Now()
	shards := max(opts.Shards, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return DumpStats{}, fmt.Errorf("persist: creating dump dir: %w", err)
	}
	kc, vc := newCodec[K](), newCodec[V]()

	ch := make(chan []rec[K, V], 2*shards)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	type result struct {
		records uint64
		bytes   uint64
		err     error
	}
	results := make([]result, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := header{
				shard:   uint32(i),
				shards:  uint32(shards),
				topo:    opts.Topo,
				keyKind: kc.kind,
				valKind: vc.kind,
				baseSeq: opts.BaseSeq,
				lineage: opts.Lineage,
			}
			n, b, err := writeShard(filepath.Join(dir, ShardFileName(i)+".tmp"), h, kc, vc, ch)
			results[i] = result{records: n, bytes: b, err: err}
			if err != nil {
				halt()
			}
		}(i)
	}

	// Walk: batch records and deal them to the free writers; abort promptly
	// if a writer failed (stop closes before ch drains, so the select below
	// never deadlocks against dead consumers).
	batch := make([]rec[K, V], 0, dumpBatchSize)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case ch <- batch:
			batch = make([]rec[K, V], 0, dumpBatchSize)
			return true
		case <-stop:
			return false
		}
	}
	iter(func(k K, v V) bool {
		batch = append(batch, rec[K, V]{key: k, val: v})
		if len(batch) == dumpBatchSize {
			return flush()
		}
		return true
	})
	flush()
	close(ch)
	wg.Wait()

	stats := DumpStats{Shards: shards, BaseSeq: opts.BaseSeq}
	for i := range results {
		if err := results[i].err; err != nil {
			removeTmps(dir, shards)
			return DumpStats{}, err
		}
		stats.Records += results[i].records
		stats.Bytes += results[i].bytes
	}

	// All writers succeeded: clear shard files a previous, wider dump left
	// behind (indices our renames will not overwrite), then publish.
	if stale, err := filepath.Glob(filepath.Join(dir, "shard-*.sgd")); err == nil {
		for _, f := range stale {
			var idx int
			if _, err := fmt.Sscanf(filepath.Base(f), shardPattern, &idx); err == nil && idx >= shards {
				os.Remove(f)
			}
		}
	}
	for i := 0; i < shards; i++ {
		final := filepath.Join(dir, ShardFileName(i))
		if err := os.Rename(final+".tmp", final); err != nil {
			return DumpStats{}, fmt.Errorf("persist: publishing shard %d: %w", i, err)
		}
	}
	syncDir(dir)

	opts.Tracer.RecordPersist(obs.PersistDumpRecords, stats.Records)
	opts.Tracer.RecordPersist(obs.PersistDumpBytes, stats.Bytes)
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// writeShard drains ch into one shard file at path (a temporary name): a
// placeholder header, the record stream under a running CRC, the sealing
// trailer, and finally the real header patched over the placeholder. The file
// is fsynced but not renamed; on error it is removed.
func writeShard[K cmp.Ordered, V any](path string, h header, kc codec[K], vc codec[V], ch <-chan []rec[K, V]) (records, bytes uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: creating %s: %w", path, err)
	}
	fail := func(err error) (uint64, uint64, error) {
		f.Close()
		os.Remove(path)
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	placeholder := h.encode()
	if _, err := w.Write(placeholder[:]); err != nil {
		return fail(err)
	}

	var crc uint32
	var scratch, kvbuf []byte
	for batch := range ch {
		for i := range batch {
			scratch = scratch[:0]
			kvbuf = kc.enc(kvbuf[:0], batch[i].key)
			scratch = binary.AppendUvarint(scratch, uint64(len(kvbuf)))
			scratch = append(scratch, kvbuf...)
			kvbuf = vc.enc(kvbuf[:0], batch[i].val)
			scratch = binary.AppendUvarint(scratch, uint64(len(kvbuf)))
			scratch = append(scratch, kvbuf...)
			crc = crc32.Update(crc, castagnoli, scratch)
			if _, err := w.Write(scratch); err != nil {
				return fail(err)
			}
			records++
			bytes += uint64(len(scratch))
		}
	}

	var trailer [trailerSize]byte
	copy(trailer[0:8], trailerMagic)
	binary.LittleEndian.PutUint64(trailer[8:], records)
	binary.LittleEndian.PutUint32(trailer[16:], crc)
	if _, err := w.Write(trailer[:]); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	h.keyCount = records
	final := h.encode()
	if _, err := f.WriteAt(final[:], 0); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return 0, 0, err
	}
	return records, bytes + headerSize + trailerSize, nil
}

// removeTmps clears the temporary files a failed dump left behind.
func removeTmps(dir string, shards int) {
	for i := 0; i < shards; i++ {
		os.Remove(filepath.Join(dir, ShardFileName(i)+".tmp"))
	}
}

// syncDir fsyncs a directory so renames into it are durable; best-effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}
