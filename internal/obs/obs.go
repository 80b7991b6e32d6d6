// Package obs is the repo's observability layer: low-overhead per-operation
// event tracing, exported metrics, and profiling hooks for the layered map.
//
// The paper's claims are all about *where* operations spend their time —
// whether a search jumped in from a thread's local structures or had to enter
// the shared skip graph at a head sentinel, how many levels it traversed, how
// often CASes retried, how long relink chains grew, and how often the lazy
// protocol deferred retirement to the commission period. internal/stats
// aggregates those quantities per trial; this package attributes them to
// individual operations and exports them live:
//
//   - Event tracing: each traced operation emits one fixed-size Event into a
//     per-stripe lock-free ring buffer (see Ring). Tracing is gated by the
//     package-level Enabled atomic; when it is off the instrumentation
//     reduces to one branch per call site and allocates nothing.
//   - Metrics export: every Tracer aggregates counters and HDR-style latency
//     histograms (stats.Histogram) per operation kind, registers itself in
//     an expvar-published registry, and supports Snapshot() plus text/JSON
//     dumpers.
//   - Profiling hooks: DebugMux serves /debug/pprof, /debug/vars, and
//     /debug/trace. The Store facade applies no pprof labels, so a caller's
//     own labels survive every Store call; per-stripe attribution is each
//     Event's Stripe.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Enabled is the global tracing switch. All tracing call sites check it
// first; with it off (the default) the instrumented paths cost one atomic
// load and branch per operation and allocate nothing. Flip it with
// Enabled.Store(true) before — or during — a run; events recorded while it
// was off are simply absent.
var Enabled atomic.Bool

// OpKind identifies the traced operation.
type OpKind uint8

const (
	// OpInsert is a map insert.
	OpInsert OpKind = iota + 1
	// OpRemove is a map remove.
	OpRemove
	// OpGet is a point lookup (Get/Contains).
	OpGet
	// OpScan is an ordered walk: Ascend/RangeScan/Count, and the
	// priority-queue operations RemoveMin, RemoveMinRelaxed and Min, which
	// walk from a head sentinel (origin head) and consult no index.
	OpScan

	nOpKinds = int(OpScan) + 1
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRemove:
		return "remove"
	case OpGet:
		return "get"
	case OpScan:
		return "scan"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// MarshalText renders the kind as its name (for JSON dumps).
func (k OpKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name, so JSON trace dumps round-trip.
func (k *OpKind) UnmarshalText(text []byte) error {
	for c := OpInsert; int(c) < nOpKinds; c++ {
		if string(text) == c.String() {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown op kind %q", text)
}

// Origin classifies where an operation found its answer or entered the
// shared structure — the locality attribution at the heart of the paper.
type Origin uint8

const (
	// OriginNone means the origin was not recorded.
	OriginNone Origin = iota
	// OriginLocalHit: the operation was answered without a descent, on the
	// node the shared hash index resolved (the paper's per-thread hash hit).
	OriginLocalHit
	// OriginLocalJump: a shared search ran, seeded from a nearby node the
	// local structures supplied (the layered design's jumping role).
	OriginLocalJump
	// OriginHead: a shared search ran from a head sentinel — a full descent
	// to the level-0 entry, the cost every non-layered structure pays.
	OriginHead

	nOrigins = int(OriginHead) + 1
)

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginNone:
		return "none"
	case OriginLocalHit:
		return "local-hit"
	case OriginLocalJump:
		return "local-jump"
	case OriginHead:
		return "head"
	default:
		return fmt.Sprintf("Origin(%d)", int(o))
	}
}

// MarshalText renders the origin as its name (for JSON dumps).
func (o Origin) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses an origin name, so JSON trace dumps round-trip.
func (o *Origin) UnmarshalText(text []byte) error {
	for c := OriginNone; int(c) < nOrigins; c++ {
		if string(text) == c.String() {
			*o = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown origin %q", text)
}

// Event is one traced operation. Events are fixed-size and pointer-free so
// they pack into the lock-free ring buffer as a handful of atomic words.
type Event struct {
	// Seq is the event's position in its stripe's stream (monotonic per
	// stripe; gaps mean the ring wrapped before a drain).
	Seq uint64 `json:"seq"`
	// Stripe is the logical thread / Store stripe that ran the operation.
	Stripe int32 `json:"stripe"`
	// Kind and Origin classify the operation and its jump origin.
	Kind   OpKind `json:"kind"`
	Origin Origin `json:"origin"`
	// Ok is the operation's boolean result (found / inserted / removed).
	Ok bool `json:"ok"`
	// Key is the operation key, squeezed into 64 bits (see hindex.Squeeze).
	Key uint64 `json:"key"`
	// StartNs is the operation's start, in nanoseconds since tracer start.
	StartNs int64 `json:"start_ns"`
	// LatencyNs is the operation's wall-clock duration.
	LatencyNs int64 `json:"latency_ns"`
	// Searches counts shared-structure searches; Levels is the total number
	// of levels those searches descended (0 for pure local hits).
	Searches uint16 `json:"searches"`
	Levels   uint16 `json:"levels"`
	// Visited counts shared-node hops across the operation's searches.
	Visited uint32 `json:"visited"`
	// CASRetries counts failed maintenance CASes (contention retries).
	CASRetries uint16 `json:"cas_retries"`
	// RelinkNodes counts marked references physically bypassed by this
	// operation's successful relink CASes (total chain length).
	RelinkNodes uint16 `json:"relink_nodes"`
	// Deferrals counts commission-period deferrals observed by this
	// operation (invalid nodes seen but too young to retire).
	Deferrals uint16 `json:"deferrals"`
}

// eventWords is the packed size of an Event in the ring, excluding Seq.
const eventWords = 6

func clamp16(v uint64) uint16 {
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

func clamp32(v uint64) uint32 {
	if v > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(v)
}

// encode packs the event (minus Seq) into w.
func (e *Event) encode(w *[eventWords]uint64) {
	w[0] = uint64(e.StartNs)
	w[1] = e.Key
	w[2] = uint64(e.LatencyNs)
	var ok uint64
	if e.Ok {
		ok = 1
	}
	w[3] = uint64(e.Kind) | uint64(e.Origin)<<8 | ok<<16 |
		uint64(uint32(e.Stripe))<<32
	w[4] = uint64(e.Searches) | uint64(e.Levels)<<16 | uint64(e.Visited)<<32
	w[5] = uint64(e.CASRetries) | uint64(e.RelinkNodes)<<16 |
		uint64(e.Deferrals)<<32
}

// decode unpacks w into e (Seq is set by the reader).
func (e *Event) decode(w *[eventWords]uint64) {
	e.StartNs = int64(w[0])
	e.Key = w[1]
	e.LatencyNs = int64(w[2])
	e.Kind = OpKind(w[3] & 0xFF)
	e.Origin = Origin(w[3] >> 8 & 0xFF)
	e.Ok = w[3]>>16&1 == 1
	e.Stripe = int32(uint32(w[3] >> 32))
	e.Searches = uint16(w[4] & 0xFFFF)
	e.Levels = uint16(w[4] >> 16 & 0xFFFF)
	e.Visited = uint32(w[4] >> 32)
	e.CASRetries = uint16(w[5] & 0xFFFF)
	e.RelinkNodes = uint16(w[5] >> 16 & 0xFFFF)
	e.Deferrals = uint16(w[5] >> 32 & 0xFFFF)
}
