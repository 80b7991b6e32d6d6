// Package persist implements the on-disk persistence layer: snapshot-backed
// parallel shard dumps, loads that merge the shards into one ascending record
// stream for a bulk builder, and an append-only write-ahead log journaling
// post-snapshot mutations.
//
// # File model
//
// A dump is a directory of shard files, shard-0000.sgd .. shard-NNNN.sgd. Each
// shard holds a subset of the dumped records in ascending key order, and no
// key is in two shards — sharding exists for write parallelism, not key
// placement, so a load may rebuild under any topology: Load merges the
// shards into one ascending stream, and the loading map builds itself from
// it, re-deriving arena placement, packed level references, hash-index
// entries, and membership vectors for the machine the load runs on.
//
// Every shard file carries a fixed header (magic, format version, shard
// index/count, the source machine's topology, key/value kind codes, the
// snapshot sequence and WAL lineage, and the shard's record count), a stream
// of length-prefixed key/value records, and a trailer sealing the stream with
// a record count and a CRC over every record byte. The header itself is sealed
// by its own CRC. Dumps write through a temporary name and rename into place.
//
// # Crash-consistency contract
//
// Loads fail closed: every shard header is validated before any record is
// decoded, the shard set must be complete and mutually consistent, and any
// decode error, CRC mismatch, version skew, truncation, out-of-order key
// within a shard, or key in two shards aborts the whole load with a typed
// error — no partially rebuilt store is ever returned. The one deliberate
// exception is the WAL's torn tail: an append-only log crashed mid-write
// legitimately ends in a partial record, so recovery truncates the log at the
// first invalid record and reports what it discarded, rather than rejecting
// the log.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed failure classes. Every error returned by this package wraps exactly
// one of these, so callers can errors.Is their way to the failure class while
// the message carries the file and offset detail.
var (
	// ErrFormat: malformed file — bad magic, impossible field, short header.
	ErrFormat = errors.New("persist: malformed file")
	// ErrVersion: the file's format version is not one this build reads.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrChecksum: a CRC seal did not match the bytes it covers.
	ErrChecksum = errors.New("persist: checksum mismatch")
	// ErrTruncated: the file ended before its declared content did.
	ErrTruncated = errors.New("persist: truncated file")
	// ErrMissingShard: the dump directory's shard set is incomplete.
	ErrMissingShard = errors.New("persist: missing shard file")
	// ErrTypeMismatch: the file's key/value kind codes do not match the
	// requested type parameters.
	ErrTypeMismatch = errors.New("persist: key/value type mismatch")
	// ErrWALMismatch: the write-ahead log belongs to a different sequence
	// space (lineage) than the dump it was asked to extend.
	ErrWALMismatch = errors.New("persist: WAL lineage mismatch")
	// ErrWALExists: a fresh store was pointed at an existing log; recover it
	// with LoadFromDisk or remove the file.
	ErrWALExists = errors.New("persist: WAL already exists")
)

const (
	// FormatVersion is the shard-file and WAL format version this build
	// writes and the only one it reads.
	FormatVersion = 1

	dumpMagic    = "SGDUMP01"
	trailerMagic = "SGEND001"
	walMagic     = "SGWAL001"

	headerSize  = 68
	trailerSize = 20

	// shardPattern names shard files within a dump directory.
	shardPattern = "shard-%04d.sgd"
	// WALFileName names the log within Config.WAL's directory.
	WALFileName = "wal.sgw"
)

// castagnoli seals headers, record streams, and WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Topology records the dumping machine's shape, so a load can report what the
// data was laid out for (the load machine re-derives its own layout).
type Topology struct {
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// Threads is the source machine's pinned logical thread count.
	Threads int
}

// header is one shard file's fixed-size header.
//
// Layout (little-endian):
//
//	 0  magic "SGDUMP01"
//	 8  version        u32
//	12  shard          u32   this file's index
//	16  shards         u32   files in the dump
//	20  sockets        u32   ┐
//	24  coresPerSocket u32   │ source topology
//	28  threadsPerCore u32   │
//	32  threads        u32   ┘
//	36  keyKind        u8
//	37  valKind        u8
//	38  reserved       u16
//	40  baseSeq        u64   the dump snapshot's sequence
//	48  lineage        u64   the source domain's sequence-space identity
//	56  keyCount       u64   records in this file
//	64  headerCRC      u32   over bytes 0..63
type header struct {
	shard    uint32
	shards   uint32
	topo     Topology
	keyKind  kindCode
	valKind  kindCode
	baseSeq  uint64
	lineage  uint64
	keyCount uint64
}

func (h *header) encode() [headerSize]byte {
	var b [headerSize]byte
	copy(b[0:8], dumpMagic)
	binary.LittleEndian.PutUint32(b[8:], FormatVersion)
	binary.LittleEndian.PutUint32(b[12:], h.shard)
	binary.LittleEndian.PutUint32(b[16:], h.shards)
	binary.LittleEndian.PutUint32(b[20:], uint32(h.topo.Sockets))
	binary.LittleEndian.PutUint32(b[24:], uint32(h.topo.CoresPerSocket))
	binary.LittleEndian.PutUint32(b[28:], uint32(h.topo.ThreadsPerCore))
	binary.LittleEndian.PutUint32(b[32:], uint32(h.topo.Threads))
	b[36] = byte(h.keyKind)
	b[37] = byte(h.valKind)
	binary.LittleEndian.PutUint64(b[40:], h.baseSeq)
	binary.LittleEndian.PutUint64(b[48:], h.lineage)
	binary.LittleEndian.PutUint64(b[56:], h.keyCount)
	binary.LittleEndian.PutUint32(b[64:], crc32.Checksum(b[:64], castagnoli))
	return b
}

// decodeHeader validates and decodes one shard header. name labels errors.
func decodeHeader(b []byte, name string) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("%w: %s: %d-byte header, want %d", ErrTruncated, name, len(b), headerSize)
	}
	if string(b[0:8]) != dumpMagic {
		return h, fmt.Errorf("%w: %s: bad magic %q", ErrFormat, name, b[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(b[64:]), crc32.Checksum(b[:64], castagnoli); got != want {
		return h, fmt.Errorf("%w: %s: header CRC %08x, computed %08x", ErrChecksum, name, got, want)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != FormatVersion {
		return h, fmt.Errorf("%w: %s: version %d, this build reads %d", ErrVersion, name, v, FormatVersion)
	}
	h.shard = binary.LittleEndian.Uint32(b[12:])
	h.shards = binary.LittleEndian.Uint32(b[16:])
	h.topo = Topology{
		Sockets:        int(binary.LittleEndian.Uint32(b[20:])),
		CoresPerSocket: int(binary.LittleEndian.Uint32(b[24:])),
		ThreadsPerCore: int(binary.LittleEndian.Uint32(b[28:])),
		Threads:        int(binary.LittleEndian.Uint32(b[32:])),
	}
	h.keyKind = kindCode(b[36])
	h.valKind = kindCode(b[37])
	h.baseSeq = binary.LittleEndian.Uint64(b[40:])
	h.lineage = binary.LittleEndian.Uint64(b[48:])
	h.keyCount = binary.LittleEndian.Uint64(b[56:])
	if h.shards == 0 || h.shard >= h.shards {
		return h, fmt.Errorf("%w: %s: shard %d of %d", ErrFormat, name, h.shard, h.shards)
	}
	return h, nil
}

// ShardFileName returns shard i's file name within a dump directory.
func ShardFileName(i int) string { return fmt.Sprintf(shardPattern, i) }
