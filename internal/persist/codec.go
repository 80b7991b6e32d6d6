package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
)

// The record codec. Each supported Go type maps to a one-byte kind code
// stamped into file headers, so a load against the wrong type parameters
// fails closed (ErrTypeMismatch) instead of reinterpreting bytes. Fixed-width
// kinds encode as 8-byte little-endian words (signs and floats through their
// bit patterns), strings and byte slices as raw bytes; anything else falls
// back to a self-contained gob stream per value. Persistence is a cold path —
// the codec favors a stable, boring format over encoding speed.

// kindCode is a persisted type tag.
type kindCode uint8

const (
	kindInvalid kindCode = iota
	kindInt
	kindInt8
	kindInt16
	kindInt32
	kindInt64
	kindUint
	kindUint8
	kindUint16
	kindUint32
	kindUint64
	kindUintptr
	kindFloat32
	kindFloat64
	kindString
	kindBytes
	kindBool
	// kindGob is the fallback: each value is one self-contained gob stream.
	kindGob
)

func (k kindCode) String() string {
	names := [...]string{"invalid", "int", "int8", "int16", "int32", "int64",
		"uint", "uint8", "uint16", "uint32", "uint64", "uintptr",
		"float32", "float64", "string", "bytes", "bool", "gob"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kindCode(%d)", int(k))
}

// codec encodes and decodes one type parameter's values. enc appends v's
// encoding to dst; dec decodes one value from exactly src.
type codec[T any] struct {
	kind kindCode
	enc  func(dst []byte, v T) []byte
	dec  func(src []byte) (T, error)
}

func appendU64(dst []byte, u uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, u)
}

func readU64(src []byte) (uint64, error) {
	if len(src) != 8 {
		return 0, fmt.Errorf("%w: %d-byte fixed-width value, want 8", ErrFormat, len(src))
	}
	return binary.LittleEndian.Uint64(src), nil
}

// word builds a codec for a fixed-width kind from its uint64 conversions.
func word[T any](k kindCode, to func(T) uint64, from func(uint64) T) codec[T] {
	return codec[T]{
		kind: k,
		enc:  func(dst []byte, v T) []byte { return appendU64(dst, to(v)) },
		dec: func(src []byte) (T, error) {
			u, err := readU64(src)
			return from(u), err
		},
	}
}

// newCodec builds T's codec. The type switch dispatches on T's dynamic
// identity; unlisted types get the gob fallback.
func newCodec[T any]() codec[T] {
	var z T
	switch any(z).(type) {
	case int:
		return any2[T](word(kindInt, func(v int) uint64 { return uint64(v) }, func(u uint64) int { return int(u) }))
	case int8:
		return any2[T](word(kindInt8, func(v int8) uint64 { return uint64(v) }, func(u uint64) int8 { return int8(u) }))
	case int16:
		return any2[T](word(kindInt16, func(v int16) uint64 { return uint64(v) }, func(u uint64) int16 { return int16(u) }))
	case int32:
		return any2[T](word(kindInt32, func(v int32) uint64 { return uint64(v) }, func(u uint64) int32 { return int32(u) }))
	case int64:
		return any2[T](word(kindInt64, func(v int64) uint64 { return uint64(v) }, func(u uint64) int64 { return int64(u) }))
	case uint:
		return any2[T](word(kindUint, func(v uint) uint64 { return uint64(v) }, func(u uint64) uint { return uint(u) }))
	case uint8:
		return any2[T](word(kindUint8, func(v uint8) uint64 { return uint64(v) }, func(u uint64) uint8 { return uint8(u) }))
	case uint16:
		return any2[T](word(kindUint16, func(v uint16) uint64 { return uint64(v) }, func(u uint64) uint16 { return uint16(u) }))
	case uint32:
		return any2[T](word(kindUint32, func(v uint32) uint64 { return uint64(v) }, func(u uint64) uint32 { return uint32(u) }))
	case uint64:
		return any2[T](word(kindUint64, func(v uint64) uint64 { return v }, func(u uint64) uint64 { return u }))
	case uintptr:
		return any2[T](word(kindUintptr, func(v uintptr) uint64 { return uint64(v) }, func(u uint64) uintptr { return uintptr(u) }))
	case float32:
		return any2[T](word(kindFloat32, func(v float32) uint64 { return uint64(math.Float32bits(v)) }, func(u uint64) float32 { return math.Float32frombits(uint32(u)) }))
	case float64:
		return any2[T](word(kindFloat64, math.Float64bits, math.Float64frombits))
	case string:
		return any2[T](codec[string]{
			kind: kindString,
			enc:  func(dst []byte, v string) []byte { return append(dst, v...) },
			dec:  func(src []byte) (string, error) { return string(src), nil },
		})
	case []byte:
		return any2[T](codec[[]byte]{
			kind: kindBytes,
			enc:  func(dst []byte, v []byte) []byte { return append(dst, v...) },
			dec:  func(src []byte) ([]byte, error) { return bytes.Clone(src), nil },
		})
	case bool:
		return any2[T](codec[bool]{
			kind: kindBool,
			enc: func(dst []byte, v bool) []byte {
				if v {
					return append(dst, 1)
				}
				return append(dst, 0)
			},
			dec: func(src []byte) (bool, error) {
				if len(src) != 1 || src[0] > 1 {
					return false, fmt.Errorf("%w: %d-byte bool value", ErrFormat, len(src))
				}
				return src[0] == 1, nil
			},
		})
	default:
		return codec[T]{
			kind: kindGob,
			enc: func(dst []byte, v T) []byte {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
					// Unencodable values (functions, channels) are a caller
					// type error, not an I/O condition; surface it loudly.
					panic(fmt.Sprintf("persist: gob-encoding %T: %v", v, err))
				}
				return append(dst, buf.Bytes()...)
			},
			dec: func(src []byte) (T, error) {
				var v T
				if err := gob.NewDecoder(bytes.NewReader(src)).Decode(&v); err != nil {
					return v, fmt.Errorf("%w: gob value: %v", ErrFormat, err)
				}
				return v, nil
			},
		}
	}
}

// appendField appends v's encoding behind its uvarint length, the field
// layout of dump and WAL records. It reserves one length byte and patches it
// after encoding, which fits every field shorter than 128 bytes; a longer
// field shifts its encoding right to make room for the wider prefix.
func appendField[T any](dst []byte, c codec[T], v T) []byte {
	at := len(dst)
	dst = c.enc(append(dst, 0), v)
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var prefix [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(prefix[:], uint64(n))
	dst = append(dst, prefix[1:w]...)
	copy(dst[at+w:], dst[at+1:at+1+n])
	copy(dst[at:], prefix[:w])
	return dst
}

// any2 rebinds a concrete codec to the type parameter the type switch proved
// it matches. The conversions compile to nothing but interface plumbing.
func any2[T, U any](c codec[U]) codec[T] {
	return codec[T]{
		kind: c.kind,
		enc:  func(dst []byte, v T) []byte { return c.enc(dst, any(v).(U)) },
		dec: func(src []byte) (T, error) {
			u, err := c.dec(src)
			return any(u).(T), err
		},
	}
}
