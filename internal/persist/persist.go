// Package persist implements the on-disk persistence layer: snapshot dumps
// written as one sorted file, loads that stream that file into a bulk
// builder, and an append-only write-ahead log journaling post-snapshot
// mutations.
//
// # File model
//
// A dump is one file, dump.sgd, in the dump directory. It holds the dumped
// records in strictly ascending key order, which is the stream the loading
// map builds itself from, re-deriving arena placement, packed level
// references, hash-index entries, and membership vectors for the machine the
// load runs on: the file carries data, not layout.
//
// The file carries a fixed header (magic, dump format version, the source
// machine's topology, key/value kind codes, the snapshot sequence and WAL
// lineage, and the record count), a stream of length-prefixed key/value
// records, and a trailer sealing the stream with a record count and a CRC
// over every record byte. The header itself is sealed by its own CRC. A dump
// writes dump.sgd.tmp, fsyncs it, and publishes it with one rename and a
// directory sync, so a crash leaves either the previous dump or the new one.
//
// # Crash-consistency contract
//
// Loads fail closed: the header is validated before any record is decoded,
// and any decode error, CRC mismatch, version skew, truncation, key not above
// the one before it, or byte after the trailer aborts the whole load with a
// typed error — no partially rebuilt store is ever returned. The one
// deliberate exception is the WAL's torn tail: an append-only log crashed
// mid-write legitimately ends in a partial record, so recovery truncates the
// log at the first invalid record and reports what it discarded, rather than
// rejecting the log.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed failure classes. Every fault this package finds in a file's content
// wraps exactly one of these, so callers can errors.Is their way to the
// failure class while the message carries the file and offset detail. A file
// that is not there surfaces the operating system's error, which wraps
// fs.ErrNotExist.
var (
	// ErrFormat: malformed file — bad magic, impossible field, short header.
	ErrFormat = errors.New("persist: malformed file")
	// ErrVersion: the file's format version is not one this build reads.
	ErrVersion = errors.New("persist: unsupported format version")
	// ErrChecksum: a CRC seal did not match the bytes it covers.
	ErrChecksum = errors.New("persist: checksum mismatch")
	// ErrTruncated: the file ended before its declared content did.
	ErrTruncated = errors.New("persist: truncated file")
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
	// DumpVersion is the dump-file format version this build writes and the
	// only one it reads.
	DumpVersion = 2
	// WALVersion is the write-ahead-log format version this build writes and
	// the only one it reads.
	WALVersion = 1

	dumpMagic    = "SGDUMP01"
	trailerMagic = "SGEND001"
	walMagic     = "SGWAL001"

	headerSize  = 60
	trailerSize = 20

	// DumpFileName names the dump within a dump directory.
	DumpFileName = "dump.sgd"
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

// header is the dump file's fixed-size header.
//
// Layout (little-endian):
//
//	 0  magic "SGDUMP01"
//	 8  version        u32
//	12  sockets        u32   ┐
//	16  coresPerSocket u32   │ source topology
//	20  threadsPerCore u32   │
//	24  threads        u32   ┘
//	28  keyKind        u8
//	29  valKind        u8
//	30  reserved       u16
//	32  baseSeq        u64   the dump snapshot's sequence
//	40  lineage        u64   the source domain's sequence-space identity
//	48  keyCount       u64   records in the file
//	56  headerCRC      u32   over bytes 0..55
type header struct {
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
	binary.LittleEndian.PutUint32(b[8:], DumpVersion)
	binary.LittleEndian.PutUint32(b[12:], uint32(h.topo.Sockets))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.topo.CoresPerSocket))
	binary.LittleEndian.PutUint32(b[20:], uint32(h.topo.ThreadsPerCore))
	binary.LittleEndian.PutUint32(b[24:], uint32(h.topo.Threads))
	b[28] = byte(h.keyKind)
	b[29] = byte(h.valKind)
	binary.LittleEndian.PutUint64(b[32:], h.baseSeq)
	binary.LittleEndian.PutUint64(b[40:], h.lineage)
	binary.LittleEndian.PutUint64(b[48:], h.keyCount)
	binary.LittleEndian.PutUint32(b[56:], crc32.Checksum(b[:56], castagnoli))
	return b
}

// decodeHeader validates and decodes the dump header. name labels errors.
func decodeHeader(b []byte, name string) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("%w: %s: %d-byte header, want %d", ErrTruncated, name, len(b), headerSize)
	}
	if string(b[0:8]) != dumpMagic {
		return h, fmt.Errorf("%w: %s: bad magic %q", ErrFormat, name, b[0:8])
	}
	if got, want := binary.LittleEndian.Uint32(b[56:]), crc32.Checksum(b[:56], castagnoli); got != want {
		return h, fmt.Errorf("%w: %s: header CRC %08x, computed %08x", ErrChecksum, name, got, want)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != DumpVersion {
		return h, fmt.Errorf("%w: %s: version %d, this build reads %d", ErrVersion, name, v, DumpVersion)
	}
	h.topo = Topology{
		Sockets:        int(binary.LittleEndian.Uint32(b[12:])),
		CoresPerSocket: int(binary.LittleEndian.Uint32(b[16:])),
		ThreadsPerCore: int(binary.LittleEndian.Uint32(b[20:])),
		Threads:        int(binary.LittleEndian.Uint32(b[24:])),
	}
	h.keyKind = kindCode(b[28])
	h.valKind = kindCode(b[29])
	h.baseSeq = binary.LittleEndian.Uint64(b[32:])
	h.lineage = binary.LittleEndian.Uint64(b[40:])
	h.keyCount = binary.LittleEndian.Uint64(b[48:])
	return h, nil
}
