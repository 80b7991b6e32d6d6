package persist

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"os"
	"path/filepath"
	"time"

	"layeredsg/internal/obs"
)

// The load side. Validation is two-phase and strictly fail-closed: first
// every shard header in the directory is read and cross-checked (version,
// CRC, type kinds, a complete and mutually consistent shard set) before a
// single record is decoded; only then are the shard files read together and
// merged into one stream in ascending key order. The dump's sequential walk
// writes every shard in ascending order, so the merge is a k-way merge of
// sorted runs. A shard whose keys are not strictly increasing, or a key
// found in two shards, ends the stream with ErrFormat; each shard is sealed
// against its trailer's count and CRC once its last record is read. Any
// failure aborts the whole load — the builder may already have consumed
// records of a load that later failed, so callers must discard the target
// on error.

// readBlock is each shard reader's buffer: the unit of file reads and of
// CRC folding.
const readBlock = 256 << 10

// maxRecordLen bounds one key or value encoding; larger prefixes mean a
// corrupt length, not a real record.
const maxRecordLen = 1 << 30

// LoadOptions parameterizes Load.
type LoadOptions struct {
	// Tracer receives load volume counters; nil for none.
	Tracer *obs.Tracer
}

// LoadStats summarizes one completed load (WAL fields are filled by the
// layeredsg recovery layer, not by Load).
type LoadStats struct {
	// Records and Bytes total what the shard files held.
	Records uint64
	Bytes   uint64
	// Shards is the number of shard files read.
	Shards int
	// BaseSeq and Lineage echo the dump's snapshot sequence and sequence
	// space; Source is the machine shape the dump was taken on.
	BaseSeq uint64
	Lineage uint64
	Source  Topology
	// WALReplayed counts log records applied over the base load;
	// WALDiscardedBytes measures the torn tail recovery truncated away.
	WALReplayed       uint64
	WALDiscardedBytes uint64
	// Elapsed is the base load's wall-clock duration, build included.
	Elapsed time.Duration
}

// Load validates the shard set in dir and calls build once with the dump's
// snapshot sequence and its records as one strictly increasing stream,
// which build must consume to the end unless it fails. A read or order
// failure ends the stream early and is returned even when build returns
// nil; build's own error aborts the load too. On any error the target build
// fed is half-built and must be discarded by the caller.
func Load[K cmp.Ordered, V any](dir string, build func(baseSeq uint64, records iter.Seq2[K, V]) error, opts LoadOptions) (LoadStats, error) {
	start := time.Now()
	kc, vc := newCodec[K](), newCodec[V]()

	files, err := filepath.Glob(filepath.Join(dir, "shard-*.sgd"))
	if err != nil {
		return LoadStats{}, fmt.Errorf("persist: listing %s: %w", dir, err)
	}
	if len(files) == 0 {
		return LoadStats{}, fmt.Errorf("%w: no shard files in %s", ErrMissingShard, dir)
	}

	// Phase 1: validate every header before decoding any record.
	headers := make([]header, len(files))
	for i, name := range files {
		h, err := readHeader(name)
		if err != nil {
			return LoadStats{}, err
		}
		if h.keyKind != kc.kind || h.valKind != vc.kind {
			return LoadStats{}, fmt.Errorf("%w: %s holds %v→%v, load requested %v→%v",
				ErrTypeMismatch, name, h.keyKind, h.valKind, kc.kind, vc.kind)
		}
		headers[i] = h
	}
	ref := headers[0]
	readers := make([]*shardReader[K, V], ref.shards)
	for i, h := range headers {
		if h.shards != ref.shards || h.baseSeq != ref.baseSeq || h.lineage != ref.lineage || h.topo != ref.topo {
			return LoadStats{}, fmt.Errorf("%w: %s disagrees with %s (mixed dumps in %s)",
				ErrFormat, files[i], files[0], dir)
		}
		if r := readers[h.shard]; r != nil {
			return LoadStats{}, fmt.Errorf("%w: shard %d appears in both %s and %s",
				ErrFormat, h.shard, r.name, files[i])
		}
		readers[h.shard] = &shardReader[K, V]{name: files[i], count: h.keyCount, kc: kc, vc: vc}
	}
	for i, r := range readers {
		if r == nil {
			return LoadStats{}, fmt.Errorf("%w: %s missing from %s (dump has %d shards)",
				ErrMissingShard, ShardFileName(i), dir, ref.shards)
		}
	}

	// Phase 2: merge the shards into build's stream.
	stats := LoadStats{
		Shards:  int(ref.shards),
		BaseSeq: ref.baseSeq,
		Lineage: ref.lineage,
		Source:  ref.topo,
	}
	for _, r := range readers {
		if err := r.open(); err != nil {
			closeShards(readers)
			return stats, err
		}
	}
	var readErr error
	err = build(ref.baseSeq, func(yield func(K, V) bool) {
		readErr = merge(readers, yield)
	})
	closeShards(readers)
	for _, r := range readers {
		stats.Records += r.read
		stats.Bytes += r.bytes
	}
	switch {
	case readErr != nil:
		return stats, readErr
	case err != nil:
		return stats, fmt.Errorf("persist: building from %s: %w", dir, err)
	}
	opts.Tracer.RecordPersist(obs.PersistLoadRecords, stats.Records)
	opts.Tracer.RecordPersist(obs.PersistLoadBytes, stats.Bytes)
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// merge yields the shards' records in ascending key order until every shard
// is sealed or yield stops. Shards are few (one per dumping socket or
// helper), so the smallest head is found by a linear scan, which also
// catches a key held by two shards: both stay heads until it is the
// smallest, and the scan compares every head with the smallest seen.
func merge[K cmp.Ordered, V any](readers []*shardReader[K, V], yield func(K, V) bool) error {
	live := make([]*shardReader[K, V], 0, len(readers))
	for _, r := range readers {
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			live = append(live, r)
		}
	}
	for len(live) > 0 {
		bi := 0
		for i := 1; i < len(live); i++ {
			switch c := cmp.Compare(live[i].key, live[bi].key); {
			case c < 0:
				bi = i
			case c == 0:
				a, b := live[bi], live[i]
				return a.check(b.check(fmt.Errorf("%w: key %v is in both %s and %s",
					ErrFormat, a.key, a.name, b.name)))
			}
		}
		r := live[bi]
		if !yield(r.key, r.val) {
			return nil
		}
		ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			live = append(live[:bi], live[bi+1:]...)
		}
	}
	return nil
}

func closeShards[K cmp.Ordered, V any](readers []*shardReader[K, V]) {
	for _, r := range readers {
		if r.f != nil {
			r.f.Close()
		}
	}
}

// readHeader reads and validates one shard file's header.
func readHeader(name string) (header, error) {
	f, err := os.Open(name)
	if err != nil {
		return header{}, fmt.Errorf("persist: opening %s: %w", name, err)
	}
	defer f.Close()
	var b [headerSize]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return header{}, fmt.Errorf("%w: %s: header: %v", ErrTruncated, name, err)
	}
	return decodeHeader(b[:], name)
}

// shardReader decodes one validated shard file's record stream through a
// block buffer. buf[pos:end] is read but not yet decoded; the stream bytes
// in buf[folded:pos] are decoded but not yet folded into crc. Folding
// happens once per block, when fill slides the buffer, and once at the seal.
type shardReader[K cmp.Ordered, V any] struct {
	name string
	f    *os.File
	kc   codec[K]
	vc   codec[V]

	buf              []byte
	pos, end, folded int
	crc              uint32
	streamBytes      uint64
	count, read      uint64 // records the header declares, and decoded so far
	bytes            uint64 // the whole file's size, once sealed
	key              K      // the last decoded record
	val              V
}

// open opens the file and positions it at the record stream.
func (r *shardReader[K, V]) open() error {
	f, err := os.Open(r.name)
	if err != nil {
		return fmt.Errorf("persist: opening %s: %w", r.name, err)
	}
	r.f = f
	if _, err := f.Seek(headerSize, io.SeekStart); err != nil {
		return fmt.Errorf("persist: %s: %w", r.name, err)
	}
	r.buf = make([]byte, readBlock)
	return nil
}

// fold folds the decoded, unfolded stream bytes into the running CRC.
func (r *shardReader[K, V]) fold() {
	r.crc = crc32.Update(r.crc, castagnoli, r.buf[r.folded:r.pos])
	r.streamBytes += uint64(r.pos - r.folded)
	r.folded = r.pos
}

// fill makes at least need undecoded bytes available, sliding the buffer
// (after folding what it drops) and reading the file. It returns
// io.ErrUnexpectedEOF when the file ends first.
func (r *shardReader[K, V]) fill(need int) error {
	if r.end-r.pos >= need {
		return nil
	}
	r.fold()
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos, r.folded = 0, 0
	if need > len(r.buf) {
		r.buf = append(r.buf[:r.end], make([]byte, need-r.end)...)
	}
	for r.end < need {
		n, err := r.f.Read(r.buf[r.end:])
		r.end += n
		if err == io.EOF {
			if r.end < need {
				return io.ErrUnexpectedEOF
			}
			break
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// blob decodes one length-prefixed field, returning a view into buf that
// stays valid until the next fill.
func (r *shardReader[K, V]) blob(what string) ([]byte, error) {
	var n uint64
	for {
		v, w := binary.Uvarint(r.buf[r.pos:r.end])
		if w > 0 {
			n = v
			r.pos += w
			break
		}
		if w < 0 {
			return nil, fmt.Errorf("%w: %s: record %d: %s length overflows", ErrFormat, r.name, r.read, what)
		}
		if err := r.fill(r.end - r.pos + 1); err != nil {
			return nil, fmt.Errorf("%w: %s: record %d: %s length: %v", ErrTruncated, r.name, r.read, what, err)
		}
	}
	if n > maxRecordLen {
		return nil, fmt.Errorf("%w: %s: record %d: %d-byte %s", ErrFormat, r.name, r.read, n, what)
	}
	if err := r.fill(int(n)); err != nil {
		return nil, fmt.Errorf("%w: %s: record %d: %s: %v", ErrTruncated, r.name, r.read, what, err)
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

// next decodes the shard's next record into key and val, or seals the
// shard and reports false after its last one. A key not above the one
// before it is an order fault.
func (r *shardReader[K, V]) next() (bool, error) {
	if r.read == r.count {
		return false, r.seal()
	}
	kb, err := r.blob("key")
	if err != nil {
		return false, err
	}
	k, err := r.kc.dec(kb)
	if err != nil {
		return false, fmt.Errorf("persist: %s: record %d: key: %w", r.name, r.read, err)
	}
	vb, err := r.blob("value")
	if err != nil {
		return false, err
	}
	v, err := r.vc.dec(vb)
	if err != nil {
		return false, fmt.Errorf("persist: %s: record %d: value: %w", r.name, r.read, err)
	}
	r.read++
	if r.read > 1 && !cmp.Less(r.key, k) {
		return false, r.check(fmt.Errorf("%w: %s: record %d: key %v not above %v",
			ErrFormat, r.name, r.read-1, k, r.key))
	}
	r.key, r.val = k, v
	return true, nil
}

// check reports an order fault only for a shard whose bytes are intact: it
// reads the rest of the shard and seals it, and a truncation or checksum
// failure found on the way wins, since corruption, not the dump, put the
// keys out of order.
func (r *shardReader[K, V]) check(fault error) error {
	for ; r.read < r.count; r.read++ {
		if _, err := r.blob("key"); err != nil {
			return err
		}
		if _, err := r.blob("value"); err != nil {
			return err
		}
	}
	if err := r.seal(); err != nil {
		return err
	}
	return fault
}

// seal checks the trailer after the last record: its magic, the record
// count, the stream CRC, and that nothing follows it.
func (r *shardReader[K, V]) seal() error {
	r.fold()
	if err := r.fill(trailerSize); err != nil {
		return fmt.Errorf("%w: %s: trailer: %v", ErrTruncated, r.name, err)
	}
	trailer := r.buf[r.pos : r.pos+trailerSize]
	r.pos += trailerSize
	if string(trailer[0:8]) != trailerMagic {
		return fmt.Errorf("%w: %s: bad trailer magic %q", ErrFormat, r.name, trailer[0:8])
	}
	if got := binary.LittleEndian.Uint64(trailer[8:]); got != r.count {
		return fmt.Errorf("%w: %s: trailer count %d, header %d", ErrFormat, r.name, got, r.count)
	}
	if got := binary.LittleEndian.Uint32(trailer[16:]); got != r.crc {
		return fmt.Errorf("%w: %s: record stream CRC %08x, computed %08x", ErrChecksum, r.name, got, r.crc)
	}
	if r.pos < r.end {
		return fmt.Errorf("%w: %s: bytes after trailer", ErrFormat, r.name)
	}
	if n, err := r.f.Read(r.buf[:1]); n > 0 || !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: %s: bytes after trailer", ErrFormat, r.name)
	}
	r.bytes = headerSize + r.streamBytes + trailerSize
	return nil
}
