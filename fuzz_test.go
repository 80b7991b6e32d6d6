package layeredsg

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"layeredsg/internal/core"
	"layeredsg/internal/node"
)

// The fuzz targets replay byte-encoded operation sequences against a model
// map and then check the shared structure's invariants (skipgraph.Validate).
// Sequences run sequentially, so every result must match the model exactly —
// weak consistency never shows without concurrency — and the structure is
// quiescent when validated.
//
// Encoding: each operation consumes two bytes, (selector, key). The selector
// picks the operation; the key is folded into a small space so sequences
// collide, revive, and retire aggressively. A deterministic injected clock
// with a tiny commission period makes the lazy variants exercise deferral,
// retirement, and revival within a few dozen operations.

// fuzzKinds are the variants each sequence replays against: the three main
// structures plus both degenerate shapes.
var fuzzKinds = []core.Kind{
	core.LayeredSG,
	core.LazyLayeredSG,
	core.LayeredSSG,
	core.LazyLayeredSSG,
	core.LayeredLL,
	core.LayeredSL,
}

const fuzzKeySpace = 64

func fuzzMachine(t testing.TB) *Machine {
	t.Helper()
	topo, err := NewTopology(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := Pin(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	return machine
}

// fuzzConfig builds a deterministic config: the injected clock advances 50ns
// per reading, so a 500ns commission period expires after ~10 clocked
// operations — fast enough for retirement and revival to occur mid-sequence.
func fuzzConfig(machine *Machine, kind core.Kind) Config {
	var now int64
	return Config{
		Machine:          machine,
		Kind:             kind,
		Seed:             1,
		CommissionPeriod: 500,
		Clock: func() int64 {
			now += 50
			return now
		},
	}
}

// checkModel compares the map's logical contents against the model: size,
// exact key set, and structural invariants.
func checkModel[K cmp.Ordered](t *testing.T, kind core.Kind, m *Map[K, int64], model map[K]int64) {
	t.Helper()
	if got, want := m.Len(), len(model); got != want {
		t.Fatalf("%v: Len() = %d, model has %d keys", kind, got, want)
	}
	want := make([]K, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	got := m.Keys()
	if len(got) != len(want) {
		t.Fatalf("%v: Keys() = %v, want %v", kind, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v: Keys() = %v, want %v", kind, got, want)
		}
	}
	if err := m.SharedStructure().Validate(); err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
}

func FuzzSkipGraphOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 2, 1, 3, 1, 0, 1, 3, 1})
	f.Add([]byte{0, 10, 0, 20, 0, 30, 4, 0, 2, 20, 4, 0, 0, 20, 5, 0})
	f.Add([]byte{0, 5, 2, 5, 0, 5, 2, 5, 0, 5, 3, 5, 6, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range fuzzKinds {
			replayHandleOps(t, kind, data)
		}
	})
}

// replayHandleOps drives confined handles directly, rotating between threads
// (sequential handoffs are legal under the confinement contract) so local
// structures on several stripes fill up and searches jump between them.
func replayHandleOps(t *testing.T, kind core.Kind, data []byte) {
	machine := fuzzMachine(t)
	m, err := New[int64, int64](fuzzConfig(machine, kind))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	thread := 0
	h := m.Handle(0)
	for i := 0; i+1 < len(data); i += 2 {
		sel, kb := data[i], data[i+1]
		key := int64(kb) % fuzzKeySpace
		_, present := model[key]
		switch sel % 8 {
		case 0, 1:
			if got := h.Insert(key, key); got != !present {
				t.Fatalf("%v op %d: Insert(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
			model[key] = key
		case 2:
			if got := h.Remove(key); got != present {
				t.Fatalf("%v op %d: Remove(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
			delete(model, key)
		case 3:
			v, ok := h.Get(key)
			if ok != present || (ok && v != key) {
				t.Fatalf("%v op %d: Get(%d) = (%d, %v) with present=%v", kind, i/2, key, v, ok, present)
			}
		case 4:
			if got := h.Contains(key); got != present {
				t.Fatalf("%v op %d: Contains(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
		case 5:
			// Range count over [key, key+16]: exact in a sequential history.
			hi := key + 16
			want := 0
			for k := range model {
				if k >= key && k <= hi {
					want++
				}
			}
			if got := h.Count(key, hi); got != want {
				t.Fatalf("%v op %d: Count(%d, %d) = %d, want %d", kind, i/2, key, hi, got, want)
			}
		case 6:
			// Ascend from key must visit the model's tail set in exact order.
			var got []int64
			h.Ascend(key, func(k, v int64) bool {
				if v != k {
					t.Fatalf("%v op %d: Ascend saw value %d under key %d", kind, i/2, v, k)
				}
				got = append(got, k)
				return true
			})
			var want []int64
			for k := range model {
				if k >= key {
					want = append(want, k)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("%v op %d: Ascend(%d) = %v, want %v", kind, i/2, key, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v op %d: Ascend(%d) = %v, want %v", kind, i/2, key, got, want)
				}
			}
		case 7:
			// Rotate to the next confined handle (sequential handoff).
			thread = (thread + 1) % m.Threads()
			h = m.Handle(thread)
		}
	}
	checkModel(t, kind, m, model)
}

// FuzzRefRepresentations is the differential target for the two places a
// node's level word lives: inline in the node (levels below
// node.MaxArenaLevels) and in its chunk's overflow words (levels above, in
// arenas taller than that). Every sequence runs once against a map on the
// small fuzz machine, whose towers fit inline, and once against a map on a
// 320-thread machine, whose height-8 towers put levels 6–8 in overflow
// words, with otherwise identical deterministic configs. Each operation's
// result must match between the twins and the model, and the final key sets
// must be identical — any divergence is an overflow-word bug (or an inline
// one).
func FuzzRefRepresentations(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 2, 1, 3, 1, 0, 1, 3, 1})
	f.Add([]byte{0, 10, 0, 20, 0, 30, 4, 0, 2, 20, 4, 0, 0, 20, 5, 0})
	f.Add([]byte{0, 5, 2, 5, 0, 5, 2, 5, 0, 5, 3, 5, 6, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range fuzzKinds {
			replayDifferentialOps(t, kind, data)
		}
	})
}

func replayDifferentialOps(t *testing.T, kind core.Kind, data []byte) {
	topo, err := NewTopology(4, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	tallMachine, err := Pin(topo, 320)
	if err != nil {
		t.Fatal(err)
	}
	newMap := func(machine *Machine) *Map[int64, int64] {
		m, err := New[int64, int64](fuzzConfig(machine, kind))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	inline, tall := newMap(fuzzMachine(t)), newMap(tallMachine)
	defer inline.Close()
	defer tall.Close()
	if inline.MaxLevel() >= node.MaxArenaLevels ||
		(kind != core.LayeredLL && tall.MaxLevel() < node.MaxArenaLevels) {
		t.Fatalf("%v: heights %d and %d do not straddle the %d inline words",
			kind, inline.MaxLevel(), tall.MaxLevel(), node.MaxArenaLevels)
	}
	// The tall twin's handle steps by the ratio of thread counts, so the two
	// rotate through their machines' sockets together.
	stride := tall.Threads() / inline.Threads()
	model := map[int64]int64{}
	thread := 0
	hi, ht := inline.Handle(0), tall.Handle(0)
	for i := 0; i+1 < len(data); i += 2 {
		sel, kb := data[i], data[i+1]
		key := int64(kb) % fuzzKeySpace
		_, present := model[key]
		switch sel % 6 {
		case 0, 1:
			gi, gt := hi.Insert(key, key), ht.Insert(key, key)
			if gi != gt || gi != !present {
				t.Fatalf("%v op %d: Insert(%d) inline=%v tall=%v present=%v", kind, i/2, key, gi, gt, present)
			}
			model[key] = key
		case 2:
			gi, gt := hi.Remove(key), ht.Remove(key)
			if gi != gt || gi != present {
				t.Fatalf("%v op %d: Remove(%d) inline=%v tall=%v present=%v", kind, i/2, key, gi, gt, present)
			}
			delete(model, key)
		case 3:
			vi, oki := hi.Get(key)
			vt, okt := ht.Get(key)
			if oki != okt || vi != vt || oki != present || (oki && vi != key) {
				t.Fatalf("%v op %d: Get(%d) inline=(%d,%v) tall=(%d,%v) present=%v", kind, i/2, key, vi, oki, vt, okt, present)
			}
		case 4:
			gi, gt := hi.Contains(key), ht.Contains(key)
			if gi != gt || gi != present {
				t.Fatalf("%v op %d: Contains(%d) inline=%v tall=%v present=%v", kind, i/2, key, gi, gt, present)
			}
		case 5:
			// Rotate both twins to their next confined handle together.
			thread = (thread + 1) % inline.Threads()
			hi, ht = inline.Handle(thread), tall.Handle(thread*stride)
		}
	}
	checkModel(t, kind, inline, model)
	checkModel(t, kind, tall, model)
	ik, tk := inline.Keys(), tall.Keys()
	if len(ik) != len(tk) {
		t.Fatalf("%v: inline keys %v != tall keys %v", kind, ik, tk)
	}
	for i := range ik {
		if ik[i] != tk[i] {
			t.Fatalf("%v: inline keys %v != tall keys %v", kind, ik, tk)
		}
	}
}

// FuzzIndexOps is the model target for the shared hash index: point
// operations resolve through hindex fast paths — including proven misses,
// miss-fallbacks, stale-entry pruning, and index-accelerated revives — from
// rotating handles, so keys are served from stripes that do not own them.
// Every result must match the model, and a replay with forced reclamation
// passes covers the generation-tag interaction with slot reuse. Each
// sequence replays over int64, string and float64 keys; the float replay
// maps key byte 63 to -0.0, which aliases +0.0 (byte 8), as the model's Go
// map does. (internal/core's TestLossyIndex covers the descents an unproven
// index miss leaves to the local structure.)
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 2, 1, 3, 1, 0, 1, 3, 1})
	f.Add([]byte{0, 10, 0, 20, 0, 30, 4, 0, 2, 20, 4, 0, 0, 20, 5, 0})
	f.Add([]byte{0, 5, 2, 5, 0, 5, 2, 5, 0, 5, 3, 5, 6, 0, 7, 0})
	// Insert +0.0, read -0.0 from the same and another stripe, remove it
	// as -0.0 and read +0.0.
	f.Add([]byte{0, 8, 3, 63, 5, 0, 4, 63, 2, 63, 3, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		replayIndexOpsAll(t, data, func(b byte) (int64, int64) {
			k := int64(b % fuzzKeySpace)
			return k, k
		})
		replayIndexOpsAll(t, data, func(b byte) (string, int64) {
			k := int64(b % fuzzKeySpace)
			return fmt.Sprintf("k%02d", k), k
		})
		replayIndexOpsAll(t, data, func(b byte) (float64, int64) {
			i := int64(b%fuzzKeySpace) - 8
			if i == fuzzKeySpace-9 {
				return math.Copysign(0, -1), 0
			}
			return float64(i) / 2, i
		})
	})
}

// replayIndexOpsAll replays data over every fuzz kind, and once more with
// reclamation on a fast clock: searches retire expired nodes and the passes
// the Reclaim op forces free their slots mid-sequence, so indexed refs cross
// slot-reuse boundaries and the LiveAs generation check earns its keep. key
// maps a key byte to a key and the value stored under it, one value per key
// (a revival restores the key's old value, DESIGN §6.4).
func replayIndexOpsAll[K cmp.Ordered](t *testing.T, data []byte, key func(byte) (K, int64)) {
	for _, kind := range fuzzKinds {
		replayIndexOps(t, kind, data, false, key)
	}
	replayIndexOps(t, core.LazyLayeredSG, data, true, key)
}

func replayIndexOps[K cmp.Ordered](t *testing.T, kind core.Kind, data []byte, reclaim bool, keyOf func(byte) (K, int64)) {
	cfg := fuzzConfig(fuzzMachine(t), kind)
	var clock atomic.Int64
	if reclaim {
		cfg.Clock = func() int64 { return clock.Add(50) }
	}
	m, err := New[K, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := map[K]int64{}
	thread := 0
	h := m.Handle(0)
	for i := 0; i+1 < len(data); i += 2 {
		sel := data[i]
		key, value := keyOf(data[i+1])
		want, present := model[key]
		switch sel % 7 {
		case 0, 1:
			if got := h.Insert(key, value); got != !present {
				t.Fatalf("%v op %d: Insert(%v) = %v with present=%v", kind, i/2, key, got, present)
			}
			model[key] = value
		case 2:
			if got := h.Remove(key); got != present {
				t.Fatalf("%v op %d: Remove(%v) = %v with present=%v", kind, i/2, key, got, present)
			}
			delete(model, key)
		case 3:
			if v, ok := h.Get(key); ok != present || (ok && v != want) {
				t.Fatalf("%v op %d: Get(%v) = (%d, %v) with present=%v", kind, i/2, key, v, ok, present)
			}
		case 4:
			if got := h.Contains(key); got != present {
				t.Fatalf("%v op %d: Contains(%v) = %v with present=%v", kind, i/2, key, got, present)
			}
		case 5:
			// Rotate to the next confined handle, so keys are served from
			// non-owning stripes — the index's target path.
			thread = (thread + 1) % m.Threads()
			h = m.Handle(thread)
		case 6:
			if reclaim {
				// Relink, arm and free what searches retired, so slots
				// recycle under live index entries.
				m.Reclaim()
			}
		}
	}
	m.Close()
	checkModel(t, kind, m, model)
}

func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 2, 1, 5, 9, 6, 3, 7, 3})
	f.Add([]byte{0, 4, 0, 5, 0, 6, 4, 4, 2, 5, 4, 0, 5, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range fuzzKinds {
			replayStoreOps(t, kind, data)
		}
	})
}

// replayStoreOps drives the goroutine-safe Store facade — leases, sessions,
// batches, and range scans — against the same model.
func replayStoreOps(t *testing.T, kind core.Kind, data []byte) {
	machine := fuzzMachine(t)
	st, err := NewStore[int64, int64](fuzzConfig(machine, kind))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	for i := 0; i+1 < len(data); i += 2 {
		sel, kb := data[i], data[i+1]
		key := int64(kb) % fuzzKeySpace
		_, present := model[key]
		switch sel % 8 {
		case 0, 1:
			if got := st.Insert(key, key); got != !present {
				t.Fatalf("%v op %d: Insert(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
			model[key] = key
		case 2:
			if got := st.Remove(key); got != present {
				t.Fatalf("%v op %d: Remove(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
			delete(model, key)
		case 3:
			v, ok := st.Get(key)
			if ok != present || (ok && v != key) {
				t.Fatalf("%v op %d: Get(%d) = (%d, %v) with present=%v", kind, i/2, key, v, ok, present)
			}
		case 4:
			// RangeScan over [key, key+16] must match the model exactly.
			hi := key + 16
			var got []int64
			st.RangeScan(key, hi, func(k, v int64) bool {
				got = append(got, k)
				return true
			})
			var want []int64
			for k := range model {
				if k >= key && k <= hi {
					want = append(want, k)
				}
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			if len(got) != len(want) {
				t.Fatalf("%v op %d: RangeScan(%d, %d) = %v, want %v", kind, i/2, key, hi, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%v op %d: RangeScan(%d, %d) = %v, want %v", kind, i/2, key, hi, got, want)
				}
			}
		case 5:
			// A Do session: three dependent operations under one lease.
			st.Do(func(h *Handle[int64, int64]) {
				ins := h.Insert(key, key)
				if ins == present {
					t.Fatalf("%v op %d: session Insert(%d) = %v with present=%v", kind, i/2, key, ins, present)
				}
				if v, ok := h.Get(key); !ok || v != key {
					t.Fatalf("%v op %d: session Get(%d) = (%d, %v) after insert", kind, i/2, key, v, ok)
				}
				if !h.Remove(key) {
					t.Fatalf("%v op %d: session Remove(%d) failed after insert", kind, i/2, key)
				}
			})
			delete(model, key)
		case 6:
			// InsertBatch of key..key+2.
			keys := []int64{key, key + 1, key + 2}
			vals := []int64{key, key + 1, key + 2}
			want := 0
			for _, k := range keys {
				if _, ok := model[k]; !ok {
					want++
				}
				model[k] = k
			}
			n, err := st.InsertBatch(keys, vals)
			if err != nil {
				t.Fatalf("%v op %d: InsertBatch: %v", kind, i/2, err)
			}
			if n != want {
				t.Fatalf("%v op %d: InsertBatch inserted %d, want %d", kind, i/2, n, want)
			}
		case 7:
			// GetBatch of key..key+2.
			keys := []int64{key, key + 1, key + 2}
			vals, found := st.GetBatch(keys)
			for j, k := range keys {
				_, p := model[k]
				if found[j] != p || (found[j] && vals[j] != k) {
					t.Fatalf("%v op %d: GetBatch[%d] = (%d, %v) with present=%v", kind, i/2, k, vals[j], found[j], p)
				}
			}
		}
	}
	checkModel(t, kind, st.Map(), model)
}

// FuzzSnapshotOps is the MVCC twin-map target: sequences interleave map
// mutations with opening, verifying, and closing snapshots, plus forced
// reclamation passes that relink, arm and free retired nodes while
// snapshots are live. Sequentially the snapshot contract is exact: a
// snapshot taken at any point must observe precisely the model state at that
// point — including values from superseded lives preserved by the revival
// log — no matter how much churn and reclamation happens afterwards.
func FuzzSnapshotOps(f *testing.F) {
	f.Add([]byte{0, 1, 4, 0, 2, 1, 0, 1, 5, 0, 7, 0, 5, 0, 6, 0})
	f.Add([]byte{0, 5, 0, 6, 4, 0, 2, 5, 0, 5, 5, 0, 2, 6, 4, 0, 7, 0, 5, 1, 5, 0})
	f.Add([]byte{0, 9, 2, 9, 0, 9, 4, 0, 2, 9, 0, 9, 7, 0, 5, 0, 2, 9, 5, 0, 6, 0, 4, 0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []core.Kind{core.LazyLayeredSG, core.LazyLayeredSSG} {
			replaySnapshotOps(t, kind, data)
		}
	})
}

type fuzzSnap struct {
	snap  *core.Snapshot[int64, int64]
	model map[int64]int64
	at    int // op index at acquisition (diagnostics)
}

func verifyFuzzSnap(t *testing.T, kind core.Kind, op int, s fuzzSnap) {
	t.Helper()
	got := map[int64]int64{}
	prev := int64(-1)
	s.snap.Ascend(func(k, v int64) bool {
		if k <= prev {
			t.Fatalf("%v op %d: snapshot(at %d) keys not strictly increasing: %d after %d", kind, op, s.at, k, prev)
		}
		prev = k
		got[k] = v
		return true
	})
	if len(got) != len(s.model) {
		t.Fatalf("%v op %d: snapshot(at %d) has %d keys, model had %d", kind, op, s.at, len(got), len(s.model))
	}
	for k, v := range s.model {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("%v op %d: snapshot(at %d) key %d = (%d, %v), model had %d", kind, op, s.at, k, gv, ok, v)
		}
	}
}

func replaySnapshotOps(t *testing.T, kind core.Kind, data []byte) {
	machine := fuzzMachine(t)
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          machine,
		Kind:             kind,
		Seed:             1,
		CommissionPeriod: 500,
		Clock:            func() int64 { return now.Add(50) },
	})
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	var snaps []fuzzSnap
	h := m.Handle(0)
	for i := 0; i+1 < len(data); i += 2 {
		sel, kb := data[i], data[i+1]
		key := int64(kb) % fuzzKeySpace
		_, present := model[key]
		switch sel % 8 {
		case 0, 1:
			// Values are a fixed function of the key: a successful insert may
			// revive the key's previous node, which restores its original
			// value (documented set semantics), so a per-life value would
			// diverge from any sequential model under helper-timing
			// nondeterminism. TestSnapshotRevivalValues pins down per-life
			// values deterministically.
			val := key * 1000
			if got := h.Insert(key, val); got != !present {
				t.Fatalf("%v op %d: Insert(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
			if !present {
				model[key] = val
			}
		case 2:
			if got := h.Remove(key); got != present {
				t.Fatalf("%v op %d: Remove(%d) = %v with present=%v", kind, i/2, key, got, present)
			}
			delete(model, key)
		case 3:
			v, ok := h.Get(key)
			if ok != present || (ok && v != model[key]) {
				t.Fatalf("%v op %d: Get(%d) = (%d, %v), model has (%d, %v)", kind, i/2, key, v, ok, model[key], present)
			}
		case 4:
			if len(snaps) < 4 {
				snap, err := m.Snapshot()
				if err != nil {
					t.Fatalf("%v op %d: Snapshot: %v", kind, i/2, err)
				}
				mc := make(map[int64]int64, len(model))
				for k, v := range model {
					mc[k] = v
				}
				snaps = append(snaps, fuzzSnap{snap: snap, model: mc, at: i / 2})
			}
		case 5:
			if len(snaps) > 0 {
				verifyFuzzSnap(t, kind, i/2, snaps[int(kb)%len(snaps)])
			}
		case 6:
			if len(snaps) > 0 {
				j := int(kb) % len(snaps)
				snaps[j].snap.Close()
				snaps = append(snaps[:j], snaps[j+1:]...)
			}
		case 7:
			// A reclamation pass: relink, arm and free what searches
			// retired — reclamation churns under the open snapshots.
			m.Reclaim()
		}
	}
	// Every still-open snapshot must still see exactly its acquisition-time
	// state, then release them so Close can proceed.
	for _, s := range snaps {
		verifyFuzzSnap(t, kind, len(data)/2, s)
		s.snap.Close()
	}
	m.Close()
	checkModel(t, kind, m, model)
}

// persistFuzzConfig is fuzzConfig with a clock safe for concurrent use, as
// the clock of a Store, which any goroutine may call, must be.
func persistFuzzConfig(machine *Machine, kind core.Kind) Config {
	var now atomic.Int64
	return Config{
		Machine:          machine,
		Kind:             kind,
		Seed:             1,
		CommissionPeriod: 500,
		Clock:            func() int64 { return now.Add(50) },
	}
}

// applyDumpLoadOps drives insert/remove/get sequences against a store and the
// shared model; values are key*7+1 so a key/value transposition in the dump
// format cannot masquerade as a match.
func applyDumpLoadOps(t *testing.T, st *Store[int64, int64], model map[int64]int64, data []byte, tag string) {
	t.Helper()
	for i := 0; i+1 < len(data); i += 2 {
		sel, kb := data[i], data[i+1]
		key := int64(kb) % fuzzKeySpace
		_, present := model[key]
		switch sel % 4 {
		case 0, 1:
			if got := st.Insert(key, key*7+1); got != !present {
				t.Fatalf("%s op %d: Insert(%d) = %v with present=%v", tag, i/2, key, got, present)
			}
			model[key] = key*7 + 1
		case 2:
			if got := st.Remove(key); got != present {
				t.Fatalf("%s op %d: Remove(%d) = %v with present=%v", tag, i/2, key, got, present)
			}
			delete(model, key)
		case 3:
			v, ok := st.Get(key)
			if ok != present || (ok && v != model[key]) {
				t.Fatalf("%s op %d: Get(%d) = (%d, %v) with present=%v", tag, i/2, key, v, ok, present)
			}
		}
	}
}

func FuzzDumpLoad(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 0, 2, 0, 3, 2, 1}, []byte{0, 9, 3, 2})
	f.Add(byte(5), []byte{0, 10, 0, 20, 0, 30, 2, 20}, []byte{0, 20, 2, 10, 3, 30})
	f.Add(byte(10), []byte{}, []byte{0, 7})
	f.Add(byte(3), []byte{0, 1, 2, 1, 0, 1, 2, 1, 0, 1}, []byte{2, 1, 0, 1})
	f.Fuzz(func(t *testing.T, variant byte, prefix, suffix []byte) {
		for _, kind := range []core.Kind{core.LazyLayeredSG, core.LazyLayeredSSG} {
			replayDumpLoad(t, kind, variant, prefix, suffix)
		}
	})
}

// replayDumpLoad is the differential round trip: a prefix of operations
// against a store and a twin model, StoreToDisk, LoadFromDisk under a
// DIFFERENT shape (machine topology varied by the fuzzed selector — so
// membership vectors, arena placement, and index entries are re-derived,
// never restored), a suffix of operations against the loaded store, then a
// full model and invariant check. Only variant%3 is read; the bits that once
// chose node and index representations are unused, so the seed corpus
// replays unchanged.
func replayDumpLoad(t *testing.T, kind core.Kind, variant byte, prefix, suffix []byte) {
	st, err := NewStore[int64, int64](persistFuzzConfig(fuzzMachine(t), kind))
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	applyDumpLoadOps(t, st, model, prefix, "prefix")
	dir := t.TempDir()
	ds, err := st.StoreToDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records != uint64(len(model)) {
		t.Fatalf("dumped %d records, model has %d", ds.Records, len(model))
	}
	st.Close()

	var topoShape [2]int
	switch variant % 3 {
	case 0:
		topoShape = [2]int{2, 1} // the dumping shape
	case 1:
		topoShape = [2]int{1, 2} // one socket
	case 2:
		topoShape = [2]int{4, 1} // wider than the dump
	}
	topo, err := NewTopology(topoShape[0], topoShape[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := Pin(topo, topoShape[0]*topoShape[1])
	if err != nil {
		t.Fatal(err)
	}
	st2, ls, err := LoadFromDisk[int64, int64](dir, persistFuzzConfig(machine, kind))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Records != uint64(len(model)) {
		t.Fatalf("loaded %d records, model has %d", ls.Records, len(model))
	}
	applyDumpLoadOps(t, st2, model, suffix, "suffix")
	st2.Close()
	checkModel(t, kind, st2.Map(), model)
}
