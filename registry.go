package layeredsg

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"layeredsg/internal/competitors"
	"layeredsg/internal/core"
	"layeredsg/internal/direct"
	"layeredsg/internal/lockedskiplist"
	"layeredsg/internal/numa"
	"layeredsg/internal/sbench"
	"layeredsg/internal/stats"
)

// Adapter is a benchmark-ready wrapper around one concurrent map instance
// (see internal/sbench).
type Adapter = sbench.Adapter

// OpHandle is a single-threaded view of a map under benchmark.
type OpHandle = sbench.OpHandle

// Workload describes one Synchrobench-style trial.
type Workload = sbench.Workload

// Result is one trial's outcome.
type Result = sbench.Result

// Distribution selects how benchmark workers draw keys; see
// Workload.Distribution.
type Distribution = sbench.Distribution

// Key distributions.
const (
	// Uniform draws keys uniformly at random (the paper's setting).
	Uniform = sbench.Uniform
	// Zipf draws keys with Zipfian skew (exponent Workload.ZipfS).
	Zipf = sbench.Zipf
	// Hotspot sends a Workload.Skew fraction of operations to the hot tenth
	// of the key space.
	Hotspot = sbench.Hotspot
)

// AdapterOptions parameterize algorithm construction for benchmarking.
type AdapterOptions struct {
	// KeySpace sizes non-layered skip lists (height = log2 key space, per the
	// paper). Required for "skiplist" and "lockedskiplist".
	KeySpace int64
	// Recorder, when non-nil, enables instrumentation.
	Recorder *stats.Recorder
	// Observe, when non-nil, attaches the observability layer (per-op event
	// tracing, exported metrics) to the constructed structure. Supported for
	// the layered variants only; other algorithms ignore it. The layer stays
	// dormant until SetObservability(true).
	Observe *Tracer
	// Scheme selects membership vectors for partitioned structures; zero
	// value means NUMA-aware.
	Scheme Scheme
	// CommissionPeriod overrides the lazy variants' commission period.
	CommissionPeriod time.Duration
	// Seed makes structure-internal randomness deterministic.
	Seed int64
	// ViaStore drives the algorithm through the goroutine-safe Store facade
	// instead of raw confined handles, so facade (lease) overhead shows up in
	// the same trials. Supported for the layered variants only; the resulting
	// adapter is oversubscribable (Workload.Goroutines may exceed the
	// machine's threads).
	ViaStore bool
}

type simpleAdapter struct {
	name   string
	handle func(int) sbench.OpHandle
	close  func()
}

func (a *simpleAdapter) Name() string                 { return a.name }
func (a *simpleAdapter) Handle(t int) sbench.OpHandle { return a.handle(t) }
func (a *simpleAdapter) Close()                       { a.close() }

var _ sbench.Adapter = (*simpleAdapter)(nil)

func heightFor(keySpace int64) int {
	if keySpace <= 2 {
		return 1
	}
	return bits.Len64(uint64(keySpace - 1))
}

type algoBuilder func(m *numa.Machine, o AdapterOptions) (Adapter, error)

func layeredBuilder(kind core.Kind) algoBuilder {
	return func(m *numa.Machine, o AdapterOptions) (Adapter, error) {
		cfg := core.Config{
			Machine:          m,
			Kind:             kind,
			Scheme:           o.Scheme,
			CommissionPeriod: o.CommissionPeriod,
			Recorder:         o.Recorder,
			Tracer:           o.Observe,
			Seed:             o.Seed,
		}
		if o.ViaStore {
			st, err := NewStore[int64, int64](cfg)
			if err != nil {
				return nil, err
			}
			return &storeAdapter{name: kind.String() + "+store", st: st}, nil
		}
		lm, err := core.New[int64, int64](cfg)
		if err != nil {
			return nil, err
		}
		return &simpleAdapter{
			name:   kind.String(),
			handle: func(t int) sbench.OpHandle { return lm.Handle(t) },
			close:  lm.Close,
		}, nil
	}
}

// storeAdapter drives a layered map through the Store facade: every worker
// index maps to the same goroutine-safe Store, whose Insert, Remove and
// Contains each lease a confined handle internally. It is oversubscribable —
// the harness may run more worker goroutines than machine threads against it.
type storeAdapter struct {
	name string
	st   *Store[int64, int64]
}

func (a *storeAdapter) Name() string               { return a.name }
func (a *storeAdapter) Handle(int) sbench.OpHandle { return a.st }
func (a *storeAdapter) Close()                     { a.st.Close() }
func (a *storeAdapter) Oversubscribable() bool     { return true }

var _ sbench.Oversubscribable = (*storeAdapter)(nil)

func directBuilder(shape direct.Shape) algoBuilder {
	return func(m *numa.Machine, o AdapterOptions) (Adapter, error) {
		if o.ViaStore {
			return nil, fmt.Errorf("layeredsg: ViaStore is only supported for layered variants, not %q", shape.String())
		}
		if shape == direct.SkipList && o.KeySpace <= 0 {
			return nil, fmt.Errorf("layeredsg: %q requires AdapterOptions.KeySpace > 0 (its height is log2 of the key space, per the paper), got %d", shape.String(), o.KeySpace)
		}
		dm, err := direct.New[int64, int64](direct.Config{
			Machine:  m,
			Shape:    shape,
			Height:   heightFor(o.KeySpace),
			Scheme:   o.Scheme,
			Recorder: o.Recorder,
			Seed:     o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &simpleAdapter{
			name:   shape.String(),
			handle: func(t int) sbench.OpHandle { return dm.Handle(t) },
			close:  func() {},
		}, nil
	}
}

func competitorBuilder(alg competitors.Algorithm) algoBuilder {
	return func(m *numa.Machine, o AdapterOptions) (Adapter, error) {
		if o.ViaStore {
			return nil, fmt.Errorf("layeredsg: ViaStore is only supported for layered variants, not %q", alg.String())
		}
		cm, err := competitors.New[int64, int64](competitors.Config{
			Machine:   m,
			Algorithm: alg,
			Recorder:  o.Recorder,
			Seed:      o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &simpleAdapter{
			name:   alg.String(),
			handle: func(t int) sbench.OpHandle { return cm.Handle(t) },
			close:  cm.Close,
		}, nil
	}
}

func lockedBuilder() algoBuilder {
	return func(m *numa.Machine, o AdapterOptions) (Adapter, error) {
		if o.ViaStore {
			return nil, fmt.Errorf("layeredsg: ViaStore is only supported for layered variants, not %q", "lockedskiplist")
		}
		if o.KeySpace <= 0 {
			return nil, fmt.Errorf("layeredsg: %q requires AdapterOptions.KeySpace > 0 (its height is log2 of the key space, per the paper), got %d", "lockedskiplist", o.KeySpace)
		}
		lm, err := lockedskiplist.New[int64, int64](lockedskiplist.Config{
			Machine:  m,
			Height:   heightFor(o.KeySpace),
			Recorder: o.Recorder,
			Seed:     o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &simpleAdapter{
			name:   "lockedskiplist",
			handle: func(t int) sbench.OpHandle { return lm.Handle(t) },
			close:  func() {},
		}, nil
	}
}

// builders maps the paper's algorithm labels to constructors.
var builders = map[string]algoBuilder{
	"layered_map_sg":    layeredBuilder(core.LayeredSG),
	"lazy_layered_sg":   layeredBuilder(core.LazyLayeredSG),
	"layered_map_ssg":   layeredBuilder(core.LayeredSSG),
	"lazy_layered_ssg":  layeredBuilder(core.LazyLayeredSSG),
	"layered_map_ll":    layeredBuilder(core.LayeredLL),
	"layered_map_sl":    layeredBuilder(core.LayeredSL),
	"skiplist":          directBuilder(direct.SkipList),
	"skipgraph_nolayer": directBuilder(direct.SkipGraph),
	"lockedskiplist":    lockedBuilder(),
	"nohotspot":         competitorBuilder(competitors.NoHotspot),
	"rotating":          competitorBuilder(competitors.Rotating),
	"numask":            competitorBuilder(competitors.NUMASK),
}

// Algorithms lists every registered algorithm label, sorted.
func Algorithms() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewAdapter builds the named algorithm over int64 keys and values, ready
// for the benchmark harness. Labels follow the paper's evaluation section;
// see Algorithms.
func NewAdapter(name string, machine *Machine, opts AdapterOptions) (Adapter, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("layeredsg: unknown algorithm %q (known: %v)", name, Algorithms())
	}
	if machine == nil {
		return nil, fmt.Errorf("layeredsg: machine is required to build %q, got nil", name)
	}
	return b(machine, opts)
}

// RunTrial preloads and runs one Synchrobench-style trial on an adapter.
func RunTrial(machine *Machine, a Adapter, w Workload) (Result, error) {
	return sbench.Trial(machine, a, w)
}

// RunAverage averages `runs` independent trials on fresh instances of the
// named algorithm (the paper averages 5 runs of 10 s each).
func RunAverage(machine *Machine, name string, opts AdapterOptions, w Workload, runs int) (Result, error) {
	return sbench.Average(machine, func() (Adapter, error) {
		return NewAdapter(name, machine, opts)
	}, w, runs)
}
