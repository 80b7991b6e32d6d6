// Package layeredsg is a Go implementation of "Layering Data Structures over
// Skip Graphs for Increased NUMA Locality" (Thomas & Mendes, PODC 2019): a
// concurrent map that layers thread-local sequential structures over a
// height-constrained, partitioned, lock-free skip graph to increase NUMA
// locality and reduce contention.
//
// # Quick start
//
//	topo := layeredsg.PaperMachine()               // 2 sockets × 24 cores × 2 SMT
//	machine, _ := layeredsg.Pin(topo, 8)           // pin 8 logical threads
//	m, _ := layeredsg.New[int64, string](layeredsg.Config{
//		Machine: machine,
//		Kind:    layeredsg.LazyLayeredSG,
//	})
//	h := m.Handle(0) // one handle per worker goroutine
//	h.Insert(42, "answer")
//	v, ok := h.Get(42)
//
// Handles are deliberately per-thread: the technique's local structures are
// sequential, which is where much of its speed comes from. Confine each
// handle to one goroutine.
//
// # Goroutine-safe access: the Store facade
//
// When goroutines are created and destroyed freely (request serving), use
// Store instead of managing handles: any goroutine may call it, and each
// operation transparently leases one of the confined handles — exclusively,
// preserving the confinement invariant — with acquisition biased so a
// goroutine tends to reuse the handle matching its scheduler placement
// (preserving the NUMA-locality story):
//
//	st, _ := layeredsg.NewStore[int64, string](layeredsg.Config{
//		Machine: machine,
//		Kind:    layeredsg.LazyLayeredSG,
//	})
//	st.Insert(42, "answer")          // any goroutine, any time
//	v, ok := st.Get(42)
//	st.Do(func(h *layeredsg.Handle[int64, string]) {
//		h.Insert(1, "a")         // session: one lease, many ops
//		h.Insert(2, "b")
//	})
//
// Confined handles remain the fast path (no lease per operation); prefer
// them when you control worker identity. Batch operations (InsertBatch,
// GetBatch) and sessions (Do, Acquire) amortize one lease over many
// operations; Store.LeaseStats exposes the lease layer's contention profile.
//
// Besides the layered variants the package exposes the paper's baselines
// (lock-free and locked skip lists, the non-layered skip graph) and
// reimplementations of the competing NUMA-aware designs (no-hotspot,
// rotating, NUMASK), all behind a common registry used by the benchmark
// harness — see NewAdapter.
//
// NUMA effects are simulated: a topology models sockets, cores, SMT threads,
// and distances; shared nodes record first-touch ownership; instrumentation
// classifies every access as local or remote. See DESIGN.md for why this
// substitution preserves the paper's metrics.
package layeredsg

import (
	"cmp"
	"net/http"

	"layeredsg/internal/core"
	"layeredsg/internal/membership"
	"layeredsg/internal/numa"
	"layeredsg/internal/obs"
	"layeredsg/internal/stats"
)

// Map is a layered concurrent map (the paper's contribution).
type Map[K cmp.Ordered, V any] = core.Map[K, V]

// Handle is one thread's view of a Map; confine each to one goroutine.
type Handle[K cmp.Ordered, V any] = core.Handle[K, V]

// Config parameterizes a layered map; see core.Config fields.
type Config = core.Config

// Kind selects a layered-map variant.
type Kind = core.Kind

// Layered-map variants from the paper's evaluation.
const (
	// LayeredSG is layered_map_sg: local maps over a non-lazy skip graph.
	LayeredSG = core.LayeredSG
	// LazyLayeredSG is lazy_layered_sg: the lazy protocol.
	LazyLayeredSG = core.LazyLayeredSG
	// LayeredSSG is layered_map_ssg: local maps over a sparse skip graph.
	LayeredSSG = core.LayeredSSG
	// LazyLayeredSSG combines laziness and sparsity (extension).
	LazyLayeredSSG = core.LazyLayeredSSG
	// LayeredLL degrades the shared structure to a linked list.
	LayeredLL = core.LayeredLL
	// LayeredSL removes the partitioning (a single skip list).
	LayeredSL = core.LayeredSL
)

// Snapshot is a consistent point-in-time view of a Map; see core.Snapshot
// and Store.Snapshot.
type Snapshot[K cmp.Ordered, V any] = core.Snapshot[K, V]

// New builds a layered map. When cfg.WAL names a directory, a fresh
// write-ahead log is opened there and every mutation is journaled with its
// MVCC sequence stamp (see StoreToDisk / LoadFromDisk); an existing log file
// fails closed with ErrPersistWALExists.
func New[K cmp.Ordered, V any](cfg Config) (*Map[K, V], error) {
	m, err := core.New[K, V](cfg)
	if err != nil {
		return nil, err
	}
	if err := attachFreshWAL(m); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// Topology describes a simulated NUMA machine.
type Topology = numa.Topology

// Machine is a topology with pinned logical worker threads.
type Machine = numa.Machine

// PaperMachine returns the paper's evaluation machine (2×24×2, distances
// 10/21).
func PaperMachine() *Topology { return numa.PaperMachine() }

// NewTopology builds a topology with one NUMA node per socket.
func NewTopology(sockets, coresPerSocket, threadsPerCore int) (*Topology, error) {
	return numa.New(sockets, coresPerSocket, threadsPerCore)
}

// NewTopologyWithDistances builds a topology with an explicit distance
// matrix.
func NewTopologyWithDistances(sockets, coresPerSocket, threadsPerCore int, distance [][]int) (*Topology, error) {
	return numa.NewWithDistances(sockets, coresPerSocket, threadsPerCore, distance)
}

// Pin places `threads` logical workers on the topology in socket-fill order.
func Pin(topo *Topology, threads int) (*Machine, error) {
	return numa.Pin(topo, threads)
}

// Scheme selects membership-vector generation.
type Scheme = membership.Scheme

// Membership-vector schemes.
const (
	// SchemeSuffix uses the low bits of the thread ID.
	SchemeSuffix = membership.Suffix
	// SchemeNUMAAware renumbers threads by physical distance (default).
	SchemeNUMAAware = membership.NUMAAware
)

// MaxLevel returns the skip graph height the partitioning scheme prescribes
// for a thread count: ceil(log2 T) - 1.
func MaxLevel(threads int) int { return membership.MaxLevel(threads) }

// Recorder aggregates the paper's instrumentation (reads/CAS locality,
// heatmaps, traversal lengths).
type Recorder = stats.Recorder

// Summary holds Table 1's per-operation metrics.
type Summary = stats.Summary

// AccessSink receives the raw access stream (see cachesim).
type AccessSink = stats.AccessSink

// NewRecorder builds a recorder for every thread of the machine; sink may be
// nil (the cache simulator implements it).
func NewRecorder(machine *Machine, sink AccessSink) *Recorder {
	return stats.NewRecorder(machine, sink)
}

// Tracer is the observability layer's hub: per-stripe event rings plus
// aggregated per-operation metrics, registered under the "layeredsg" expvar.
// Attach one via Config.Tracer (or AdapterOptions.Observe) and flip
// SetObservability(true); until then the layer is dormant and allocation-free
// per operation.
type Tracer = obs.Tracer

// TracerConfig parameterizes NewTracer.
type TracerConfig = obs.TracerConfig

// TraceEvent is one traced operation: kind, key, jump origin (local-map hit,
// local jump, or head descent), latency, and per-op counter deltas (nodes
// visited, CAS retries, relinked chain nodes, commission-period deferrals).
type TraceEvent = obs.Event

// NewTracer creates and registers a tracer.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// SetObservability switches per-operation tracing on or off, process-wide.
// Off (the default), traced structures run their operations with no event
// recording and no allocation.
func SetObservability(on bool) { obs.Enabled.Store(on) }

// ObservabilityEnabled reports whether per-operation tracing is on.
func ObservabilityEnabled() bool { return obs.Enabled.Load() }

// DebugMux serves /debug/pprof, /debug/vars, /debug/obs, and /debug/trace
// for a tracer (which may be nil: the pprof and vars endpoints still work).
func DebugMux(tracer *Tracer) *http.ServeMux { return obs.DebugMux(tracer) }
