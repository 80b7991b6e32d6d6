package persist

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// The write-ahead log: an append-only journal of stamped mutations. The core
// map calls Insert/Remove at its MVCC stamp sites (WAL satisfies
// core.MutationSink), so per-key record order is stamp order and the global
// order is recoverable by sorting on the sequence field — which is how replay
// applies it.
//
// File layout: a 28-byte header (magic "SGWAL001", version, key/value kind
// codes, the sequence-space lineage, a header CRC) followed by records:
//
//	op u8 (1=insert, 2=remove) | seq u64 | klen uvarint | key
//	| insert only: vlen uvarint | value | crc u32 over all preceding bytes
//
// Appends are buffered and never fsync; Commit is the only acknowledgment,
// and the log's SyncPolicy (see sync.go) decides what it promises: never (a
// flush to the OS) or group (an fsync, batching concurrent committers).
// Whatever the policy, the crash contract for the unacknowledged tail is
// "the tail may be torn". Recovery (OpenWAL) scans from the header, keeps
// every record whose CRC seals, and physically truncates the file at the
// first invalid one — a crashed append legitimately leaves a partial
// record, so the torn tail is discarded rather than rejected. Records that
// survive with a valid CRC but fail to decode indicate real corruption and
// fail the open closed (ErrFormat).
//
// The lineage field ties a log to the sequence space it journals: a domain
// rebuilt from a dump adopts the dump's lineage and advances its sequence
// past every persisted stamp, so the same log keeps appending comparable
// stamps across restarts. OpenWAL rejects a log whose lineage differs from
// the dump it is asked to extend (ErrWALMismatch).

// WALOp tags a log record.
type WALOp uint8

const (
	// WALInsert journals a birth stamp (fresh insert or revival).
	WALInsert WALOp = 1
	// WALRemove journals a death stamp.
	WALRemove WALOp = 2
)

const walHeaderSize = 28

// WALRecord is one decoded log record. Value is the zero value for removes.
type WALRecord[K cmp.Ordered, V any] struct {
	Op    WALOp
	Seq   uint64
	Key   K
	Value V
}

// RecoverStats reports what OpenWAL's torn-tail scan did.
type RecoverStats struct {
	// Records is the number of intact records the log held.
	Records int
	// DiscardedBytes is the torn tail truncated away (0 when the log was
	// clean); Truncated reports whether a truncation happened.
	DiscardedBytes int64
	Truncated      bool
}

// WAL is an open write-ahead log. Insert, Remove, Flush, Sync, Commit,
// Prune, and Close are safe for concurrent use; I/O errors are sticky (Err)
// because the core's stamp sites cannot propagate them — they surface early
// through Err and Stats().Errs, not just at Close.
type WAL[K cmp.Ordered, V any] struct {
	path    string
	kc      codec[K]
	vc      codec[V]
	lineage uint64
	pol     SyncPolicy

	// Durability counters; see WALStats.
	fsyncs, commits, groupCommits, commitWaitNs, errs atomic.Uint64

	// syncMu serializes the durability leaders — group-commit fsyncs,
	// Prune's rewrite, Close — against each other, and is what keeps w.f
	// alive while leaderSync fsyncs outside mu. Lock order: syncMu before
	// mu, never the reverse.
	syncMu sync.Mutex
	// durable is the highest append ticket an fsync has covered; Commit
	// waits for durable >= the ticket current at its call. Guarded by
	// syncMu.
	durable uint64

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	scratch []byte
	err     error
	// appended counts records accepted into the buffer — the durability
	// ticket space.
	appended uint64

	// crashHook, when set (crash-injection tests only), is called at named
	// durability points; the hook may os.Exit to simulate a crash there.
	crashHook func(point string)
	// pruneHook, when set (tests only), is called during Prune's off-lock
	// rebuild phase, with no WAL lock held.
	pruneHook func()
}

// newWAL wires a WAL around an open append handle.
func newWAL[K cmp.Ordered, V any](path string, kc codec[K], vc codec[V], lineage uint64, f *os.File, pol SyncPolicy) *WAL[K, V] {
	return &WAL[K, V]{
		path: path, kc: kc, vc: vc, lineage: lineage, pol: pol,
		f: f, w: bufio.NewWriterSize(f, 1<<16),
	}
}

// crash invokes the crash-injection hook, if any.
func (w *WAL[K, V]) crash(point string) {
	if w.crashHook != nil {
		w.crashHook(point)
	}
}

// setErrLocked records a sticky I/O error (keeping the first) and counts the
// event in Stats().Errs, so a failing log is observable long before Close.
// Callers hold mu.
func (w *WAL[K, V]) setErrLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	w.errs.Add(1)
}

func encodeWALHeader(kk, vk kindCode, lineage uint64) [walHeaderSize]byte {
	var b [walHeaderSize]byte
	copy(b[0:8], walMagic)
	binary.LittleEndian.PutUint32(b[8:], WALVersion)
	b[12] = byte(kk)
	b[13] = byte(vk)
	binary.LittleEndian.PutUint64(b[16:], lineage)
	binary.LittleEndian.PutUint32(b[24:], crc32.Checksum(b[:24], castagnoli))
	return b
}

// CreateWAL creates a fresh log at path for the given sequence space. It
// fails with ErrWALExists if path already exists: a leftover log holds
// journaled mutations, and silently restarting it would lose them — recover
// through the load path or remove the file explicitly.
func CreateWAL[K cmp.Ordered, V any](path string, lineage uint64, pol SyncPolicy) (*WAL[K, V], error) {
	kc, vc := newCodec[K](), newCodec[V]()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s (recover it via LoadFromDisk or remove the file)", ErrWALExists, path)
		}
		return nil, fmt.Errorf("persist: creating WAL: %w", err)
	}
	hb := encodeWALHeader(kc.kind, vc.kind, lineage)
	if _, err := f.Write(hb[:]); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("persist: writing WAL header: %w", err)
	}
	// The header is durable; make the directory entry durable too, or a
	// crash right after create can lose the whole file.
	syncDir(filepath.Dir(path))
	return newWAL(path, kc, vc, lineage, f, pol), nil
}

// walRawRec is one scanned record's byte extent and parsed fields.
type walRawRec struct {
	op         WALOp
	seq        uint64
	key, val   []byte // sub-slices of the scanned data
	start, end int
}

// scanWAL parses records from data starting at walHeaderSize and hands each
// intact record to visit in log order; an error from visit stops the scan and
// is returned. validEnd is the offset where the intact prefix ends; parsing
// stopping before len(data) means the tail from that offset is torn.
func scanWAL(data []byte, visit func(walRawRec) error) (validEnd int, err error) {
	off := walHeaderSize
	for off < len(data) {
		r := walRawRec{start: off}
		p := off
		if len(data)-p < 1+8 {
			break
		}
		r.op = WALOp(data[p])
		if r.op != WALInsert && r.op != WALRemove {
			break
		}
		r.seq = binary.LittleEndian.Uint64(data[p+1:])
		p += 9
		blob := func() ([]byte, bool) {
			n, w := binary.Uvarint(data[p:])
			if w <= 0 || n > maxRecordLen || uint64(len(data)-p-w) < n {
				return nil, false
			}
			b := data[p+w : p+w+int(n)]
			p += w + int(n)
			return b, true
		}
		var ok bool
		if r.key, ok = blob(); !ok {
			break
		}
		if r.op == WALInsert {
			if r.val, ok = blob(); !ok {
				break
			}
		}
		if len(data)-p < 4 {
			break
		}
		if binary.LittleEndian.Uint32(data[p:]) != crc32.Checksum(data[off:p], castagnoli) {
			break
		}
		r.end = p + 4
		if err := visit(r); err != nil {
			return off, err
		}
		off = r.end
	}
	return off, nil
}

// OpenWAL opens an existing log, recovers its torn tail (physically
// truncating the file), decodes the surviving records, and returns the log
// positioned for further appends. expectLineage, when nonzero, must match the
// log's header (ErrWALMismatch) — pass the dump's lineage to guarantee the
// log extends the sequence space being loaded. A missing file surfaces as
// fs.ErrNotExist for the caller to fall back to CreateWAL.
func OpenWAL[K cmp.Ordered, V any](path string, expectLineage uint64, pol SyncPolicy) (*WAL[K, V], []WALRecord[K, V], RecoverStats, error) {
	kc, vc := newCodec[K](), newCodec[V]()
	var stats RecoverStats
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, stats, err
	}
	if len(data) < walHeaderSize {
		return nil, nil, stats, fmt.Errorf("%w: %s: %d-byte WAL header, want %d", ErrTruncated, path, len(data), walHeaderSize)
	}
	if string(data[0:8]) != walMagic {
		return nil, nil, stats, fmt.Errorf("%w: %s: bad WAL magic %q", ErrFormat, path, data[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(data[24:]), crc32.Checksum(data[:24], castagnoli); got != want {
		return nil, nil, stats, fmt.Errorf("%w: %s: WAL header CRC %08x, computed %08x", ErrChecksum, path, got, want)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != WALVersion {
		return nil, nil, stats, fmt.Errorf("%w: %s: WAL version %d, this build reads %d", ErrVersion, path, v, WALVersion)
	}
	if kk, vk := kindCode(data[12]), kindCode(data[13]); kk != kc.kind || vk != vc.kind {
		return nil, nil, stats, fmt.Errorf("%w: %s holds %v→%v, load requested %v→%v", ErrTypeMismatch, path, kk, vk, kc.kind, vc.kind)
	}
	lineage := binary.LittleEndian.Uint64(data[16:])
	if expectLineage != 0 && lineage != expectLineage {
		return nil, nil, stats, fmt.Errorf("%w: %s journals lineage %016x, dump is %016x", ErrWALMismatch, path, lineage, expectLineage)
	}

	var recs []WALRecord[K, V]
	validEnd, err := scanWAL(data, func(r walRawRec) error {
		rec := WALRecord[K, V]{Op: r.op, Seq: r.seq}
		var err error
		if rec.Key, err = kc.dec(r.key); err != nil {
			return fmt.Errorf("%w: %s: record %d: key undecodable despite valid CRC", ErrFormat, path, len(recs))
		}
		if r.op == WALInsert {
			if rec.Value, err = vc.dec(r.val); err != nil {
				return fmt.Errorf("%w: %s: record %d: value undecodable despite valid CRC", ErrFormat, path, len(recs))
			}
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}
	stats.Records = len(recs)
	if validEnd < len(data) {
		stats.DiscardedBytes = int64(len(data) - validEnd)
		stats.Truncated = true
		if err := os.Truncate(path, int64(validEnd)); err != nil {
			return nil, nil, stats, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, stats, fmt.Errorf("persist: reopening WAL for append: %w", err)
	}
	if stats.Truncated {
		// Make the truncation itself durable before trusting the recovered
		// prefix: fsync the shortened file and its directory, so a crash
		// right after recovery cannot resurrect the discarded tail under
		// fresh appends.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, stats, fmt.Errorf("persist: syncing truncated WAL: %w", err)
		}
		syncDir(filepath.Dir(path))
	}
	w := newWAL(path, kc, vc, lineage, f, pol)
	return w, recs, stats, nil
}

// Insert journals a birth stamp. Part of core.MutationSink.
func (w *WAL[K, V]) Insert(seq uint64, key K, value V) { w.append(WALInsert, seq, key, value) }

// Remove journals a death stamp. Part of core.MutationSink.
func (w *WAL[K, V]) Remove(seq uint64, key K) {
	var zero V
	w.append(WALRemove, seq, key, zero)
}

func (w *WAL[K, V]) append(op WALOp, seq uint64, key K, value V) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.f == nil {
		if w.err != nil {
			// Every record dropped on the sticky error is counted, so the
			// loss is visible (Stats().Errs) long before Close returns it.
			w.errs.Add(1)
		}
		return
	}
	b := w.scratch[:0]
	b = append(b, byte(op))
	b = appendU64(b, seq)
	b = appendField(b, w.kc, key)
	if op == WALInsert {
		b = appendField(b, w.vc, value)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
	if _, err := w.w.Write(b); err != nil {
		w.setErrLocked(err)
		w.scratch = b
		return
	}
	w.scratch = b
	w.appended++
}

// Flush pushes buffered records to the OS (no fsync).
func (w *WAL[K, V]) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *WAL[K, V]) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := w.w.Flush(); err != nil {
		w.setErrLocked(err)
	}
	return w.err
}

// Sync flushes and fsyncs the log, advancing the durable watermark.
func (w *WAL[K, V]) Sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	return w.leaderSync()
}

// Prune rewrites the log keeping only records with seq > upTo — called after
// a dump at sequence upTo makes the prefix redundant (the dump holds its
// effects). The rewrite goes through a temporary file and an atomic rename,
// and the bulk of it runs *off* the append mutex: appends (the MVCC stamp
// sites) proceed into the live log while the pruned file is rebuilt from the
// flushed prefix, and only the brief flush-and-swap windows block them.
// Records appended during the rebuild are carried into the new file
// verbatim; replay does its own seq > baseSeq filtering, so a carried-over
// old stamp costs bytes, not correctness.
func (w *WAL[K, V]) Prune(upTo uint64) error {
	// Serialize against concurrent prunes, group-commit leaders, and Close:
	// syncMu is what keeps the handle stable while we work off-lock.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()

	// Phase 1 (brief lock): flush, so the on-disk prefix holds everything
	// appended so far.
	w.mu.Lock()
	if err := w.flushLocked(); err != nil || w.f == nil {
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()

	// Phase 2 (off-lock): rebuild the pruned file from the flushed prefix.
	// Concurrent appends keep landing in the live log; phase 3 carries them
	// over. The scan can stop short of the read's end (a concurrent append's
	// auto-flush may have landed a record prefix after our flush); those
	// bytes complete on disk by phase 3's flush and are carried from
	// validEnd on.
	if w.pruneHook != nil {
		w.pruneHook()
	}
	data, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("persist: pruning WAL: %w", err)
	}
	tmp := w.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: pruning WAL: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: pruning WAL: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	hb := encodeWALHeader(w.kc.kind, w.vc.kind, w.lineage)
	if _, err := bw.Write(hb[:]); err != nil {
		return fail(err)
	}
	validEnd, err := scanWAL(data, func(r walRawRec) error {
		if r.seq <= upTo {
			return nil
		}
		_, err := bw.Write(data[r.start:r.end])
		return err
	})
	if err != nil {
		return fail(err)
	}

	// Phase 3 (lock): flush the records that arrived during the rebuild,
	// append them to the new file verbatim from where the phase-2 scan
	// stopped, seal, rename, and swap the append handle.
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil || w.f == nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	delta, err := readFrom(w.path, int64(validEnd))
	if err != nil {
		return fail(err)
	}
	if _, err := bw.Write(delta); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: pruning WAL: %w", err)
	}
	w.crash("prune-tmp-synced")
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: pruning WAL: %w", err)
	}
	w.crash("prune-renamed")
	// Make the rename durable: without the directory fsync a crash here can
	// resurrect the pre-prune file.
	syncDir(filepath.Dir(w.path))
	// Swap the append handle to the rewritten file.
	nf, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.setErrLocked(fmt.Errorf("persist: reopening pruned WAL: %w", err))
		return w.err
	}
	w.f.Close()
	w.f = nf
	w.w = bufio.NewWriterSize(nf, 1<<16)
	// Everything appended so far sits fsynced in the renamed file (or is
	// covered by the dump that triggered the prune).
	w.durable = w.appended
	w.fsyncs.Add(1)
	return nil
}

// readFrom reads path's bytes from offset off to EOF.
func readFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() <= off {
		return nil, nil
	}
	buf := make([]byte, fi.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// Close flushes, fsyncs, and closes the log. Part of core.MutationSink.
// Idempotent; returns the first sticky error.
func (w *WAL[K, V]) Close() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	if err := w.flushLocked(); err == nil {
		if err := w.f.Sync(); err != nil {
			w.setErrLocked(err)
		} else {
			w.durable = w.appended
		}
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	w.f = nil
	return w.err
}

// Err returns the sticky I/O error, if any. Part of core.MutationSink.
func (w *WAL[K, V]) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Path returns the log's file path.
func (w *WAL[K, V]) Path() string { return w.path }

// Lineage returns the sequence space the log journals.
func (w *WAL[K, V]) Lineage() uint64 { return w.lineage }
