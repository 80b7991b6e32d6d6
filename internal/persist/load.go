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
)

// The load side. Validation is strictly fail-closed: the header (magic,
// CRC, version, type kinds) is validated before a single record is decoded;
// then the records stream to the builder in file order. A key not above the
// one before it ends the stream with ErrFormat, and the file is sealed
// against its trailer's count and CRC once its last record is read. Any
// failure aborts the whole load — the builder may already have consumed
// records of a load that later failed, so callers must discard the target on
// error.

// readBlock is the reader's buffer: the unit of file reads and of CRC
// folding.
const readBlock = 256 << 10

// maxRecordLen bounds one key or value encoding; larger prefixes mean a
// corrupt length, not a real record.
const maxRecordLen = 1 << 30

// LoadStats summarizes one completed load (WAL fields are filled by the
// layeredsg recovery layer, not by Load).
type LoadStats struct {
	// Records and Bytes total what the dump file held.
	Records uint64
	Bytes   uint64
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

// Load validates dir's dump file and calls build once with the dump's
// snapshot sequence and its records as one strictly increasing stream,
// which build must consume to the end unless it fails. A read or order
// failure ends the stream early and is returned even when build returns
// nil; build's own error aborts the load too. On any error the target build
// fed is half-built and must be discarded by the caller. A directory without
// a dump file fails with an error wrapping fs.ErrNotExist.
func Load[K cmp.Ordered, V any](dir string, build func(baseSeq uint64, records iter.Seq2[K, V]) error) (LoadStats, error) {
	start := time.Now()
	name := filepath.Join(dir, DumpFileName)
	f, err := os.Open(name)
	if err != nil {
		return LoadStats{}, fmt.Errorf("persist: opening dump: %w", err)
	}
	defer f.Close()
	var hb [headerSize]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		return LoadStats{}, fmt.Errorf("%w: %s: header: %v", ErrTruncated, name, err)
	}
	h, err := decodeHeader(hb[:], name)
	if err != nil {
		return LoadStats{}, err
	}
	kc, vc := newCodec[K](), newCodec[V]()
	if h.keyKind != kc.kind || h.valKind != vc.kind {
		return LoadStats{}, fmt.Errorf("%w: %s holds %v→%v, load requested %v→%v",
			ErrTypeMismatch, name, h.keyKind, h.valKind, kc.kind, vc.kind)
	}
	r := &reader[K, V]{name: name, f: f, kc: kc, vc: vc, buf: make([]byte, readBlock), count: h.keyCount}

	var readErr error
	err = build(h.baseSeq, func(yield func(K, V) bool) {
		readErr = r.stream(yield)
	})
	stats := LoadStats{Records: r.read, Bytes: r.bytes, BaseSeq: h.baseSeq, Lineage: h.lineage, Source: h.topo}
	switch {
	case readErr != nil:
		return stats, readErr
	case err != nil:
		return stats, fmt.Errorf("persist: building from %s: %w", dir, err)
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// reader decodes the validated dump file's record stream through a block
// buffer. buf[pos:end] is read but not yet decoded; the stream bytes
// in buf[folded:pos] are decoded but not yet folded into crc. Folding
// happens once per block, when fill slides the buffer, and once at the seal.
type reader[K cmp.Ordered, V any] struct {
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

// fold folds the decoded, unfolded stream bytes into the running CRC.
func (r *reader[K, V]) fold() {
	r.crc = crc32.Update(r.crc, castagnoli, r.buf[r.folded:r.pos])
	r.streamBytes += uint64(r.pos - r.folded)
	r.folded = r.pos
}

// fill makes at least need undecoded bytes available, sliding the buffer
// (after folding what it drops) and reading the file. It returns
// io.ErrUnexpectedEOF when the file ends first.
func (r *reader[K, V]) fill(need int) error {
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
func (r *reader[K, V]) blob(what string) ([]byte, error) {
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

// stream yields the file's records in order until the last one is read and
// the file sealed, or yield stops.
func (r *reader[K, V]) stream(yield func(K, V) bool) error {
	for {
		ok, err := r.next()
		if !ok || err != nil {
			return err
		}
		if !yield(r.key, r.val) {
			return nil
		}
	}
}

// next decodes the next record into key and val, or seals the file and
// reports false after the last one. A key not above the one before it is an
// order fault.
func (r *reader[K, V]) next() (bool, error) {
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

// check reports an order fault only for a file whose bytes are intact: it
// reads the rest of the file and seals it, and a truncation or checksum
// failure found on the way wins, since corruption, not the dump, put the
// keys out of order.
func (r *reader[K, V]) check(fault error) error {
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
func (r *reader[K, V]) seal() error {
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
