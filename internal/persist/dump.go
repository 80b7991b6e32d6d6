package persist

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// The dump side: a sequential snapshot walk feeding one file writer. The walk
// is an ordered bottom-level traversal, so the file's records ascend. The
// walker batches records and hands each batch to a writer goroutine, which
// encodes the batch into one buffer, folds it into the stream CRC, writes
// it, and hands the emptied batch back for the walker to refill; the walk
// and the writer's encoding and I/O overlap, and a dump allocates no more
// batches than are ever in flight at once.
//
// The file is written under a temporary name and published with one rename
// and a directory sync. A dump that fails before the rename leaves the
// previous dump untouched; a crash before the rename leaves the previous dump
// beside a stray temporary, which loads ignore and the next dump overwrites;
// a crash between the rename and the directory sync leaves one dump or the
// other, whole; a crash after the sync leaves the new dump.

// dumpBatchSize is the walker-to-writer hand-off granularity.
const dumpBatchSize = 512

// rec is one key/value pair in flight between the walker and the writer.
type rec[K cmp.Ordered, V any] struct {
	key K
	val V
}

// DumpOptions parameterizes Dump.
type DumpOptions struct {
	// Topo is the source machine's shape, recorded in the header.
	Topo Topology
	// BaseSeq is the dumped snapshot's sequence.
	BaseSeq uint64
	// Lineage is the source domain's sequence-space identity.
	Lineage uint64
}

// DumpStats summarizes one completed dump.
type DumpStats struct {
	// Records and Bytes total what the dump file holds (header, records,
	// and trailer included in Bytes).
	Records uint64
	Bytes   uint64
	// BaseSeq echoes the dumped snapshot's sequence.
	BaseSeq uint64
	// Elapsed is the dump's wall-clock duration.
	Elapsed time.Duration
}

// Dump writes every record iter yields into dir's dump file, replacing any
// previous dump there. iter must call its callback sequentially in strictly
// increasing key order (a snapshot Ascend does); Load relies on that and
// rejects a file whose keys do not ascend. On error the previous dump in
// dir, if any, is left untouched.
func Dump[K cmp.Ordered, V any](dir string, iter func(fn func(key K, value V) bool), opts DumpOptions) (DumpStats, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return DumpStats{}, fmt.Errorf("persist: creating dump dir: %w", err)
	}
	kc, vc := newCodec[K](), newCodec[V]()
	path := filepath.Join(dir, DumpFileName)
	tmp := path + ".tmp"
	h := header{topo: opts.Topo, keyKind: kc.kind, valKind: vc.kind, baseSeq: opts.BaseSeq, lineage: opts.Lineage}

	// The walker and the writer run at uneven paces (a walk over a dense
	// stretch, a collection, a slow write). Sixteen queued batches ride that
	// out; with two, hand-off stalls added a quarter to a 2 M-key dump
	// (EXPERIMENTS.md "One dump file").
	ch := make(chan []rec[K, V], 16)
	// free returns written batches to the walker. It holds every batch that
	// can be in flight (the queued ones, the walker's and the writer's), so
	// the writer's hand-back never blocks.
	free := make(chan []rec[K, V], cap(ch)+2)
	done := make(chan struct{})
	var records, bytes uint64
	var werr error
	go func() {
		defer close(done)
		records, bytes, werr = writeDump(tmp, h, kc, vc, ch, free)
	}()

	// Walk: batch records and hand them to the writer; stop promptly if the
	// writer failed (done closes when it returns, so the select never blocks
	// against a writer that stopped reading).
	next := func() []rec[K, V] {
		select {
		case b := <-free:
			return b[:0]
		default:
			return make([]rec[K, V], 0, dumpBatchSize)
		}
	}
	batch := next()
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		select {
		case ch <- batch:
			batch = next()
			return true
		case <-done:
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
	<-done
	if werr != nil {
		return DumpStats{}, werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return DumpStats{}, fmt.Errorf("persist: publishing %s: %w", path, err)
	}
	syncDir(dir)
	return DumpStats{Records: records, Bytes: bytes, BaseSeq: opts.BaseSeq, Elapsed: time.Since(start)}, nil
}

// writeDump drains ch into the file at path (the temporary name): a
// placeholder header, the record stream under a running CRC, the sealing
// trailer, and finally the real header patched over the placeholder. Each
// batch is encoded into one buffer, folded into the CRC once, written once,
// and handed back on free. The file is fsynced but not renamed; on error it
// is removed.
func writeDump[K cmp.Ordered, V any](path string, h header, kc codec[K], vc codec[V], ch <-chan []rec[K, V], free chan<- []rec[K, V]) (records, bytes uint64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: creating %s: %w", path, err)
	}
	fail := func(err error) (uint64, uint64, error) {
		f.Close()
		os.Remove(path)
		return 0, 0, fmt.Errorf("persist: writing %s: %w", path, err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	placeholder := h.encode()
	if _, err := w.Write(placeholder[:]); err != nil {
		return fail(err)
	}

	var crc uint32
	var buf []byte
	for batch := range ch {
		buf = buf[:0]
		for i := range batch {
			buf = appendField(buf, kc, batch[i].key)
			buf = appendField(buf, vc, batch[i].val)
		}
		crc = crc32.Update(crc, castagnoli, buf)
		if _, err := w.Write(buf); err != nil {
			return fail(err)
		}
		records += uint64(len(batch))
		bytes += uint64(len(buf))
		select {
		case free <- batch:
		default:
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
		return 0, 0, fmt.Errorf("persist: closing %s: %w", path, err)
	}
	return records, bytes + headerSize + trailerSize, nil
}

// syncDir fsyncs a directory so renames into it are durable; best-effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}
