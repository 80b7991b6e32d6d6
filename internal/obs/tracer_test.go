package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"

	"layeredsg/internal/stats"
)

// withEnabled flips the package switch for one test and restores it after.
func withEnabled(t *testing.T, on bool) {
	t.Helper()
	prev := Enabled.Load()
	Enabled.Store(on)
	t.Cleanup(func() { Enabled.Store(prev) })
}

func newTestTracer(t *testing.T, name string, stripes int) *Tracer {
	t.Helper()
	tr := NewTracer(TracerConfig{Name: name})
	t.Cleanup(tr.Close)
	tr.Attach(stripes, 4)
	return tr
}

func TestKindAndOriginStrings(t *testing.T) {
	if OpInsert.String() != "insert" || OpRemove.String() != "remove" ||
		OpGet.String() != "get" || OpScan.String() != "scan" {
		t.Fatalf("op kind names wrong: %v %v %v %v", OpInsert, OpRemove, OpGet, OpScan)
	}
	if OriginLocalHit.String() != "local-hit" || OriginLocalJump.String() != "local-jump" ||
		OriginHead.String() != "head" {
		t.Fatalf("origin names wrong: %v %v %v", OriginLocalHit, OriginLocalJump, OriginHead)
	}
	// Unknown values must not panic and must stay distinguishable.
	if OpKind(99).String() == OpInsert.String() || Origin(99).String() == OriginHead.String() {
		t.Fatal("unknown enum values collide with real names")
	}
	b, err := OpGet.MarshalText()
	if err != nil || string(b) != "get" {
		t.Fatalf("OpKind.MarshalText = %q, %v", b, err)
	}
	b, err = OriginHead.MarshalText()
	if err != nil || string(b) != "head" {
		t.Fatalf("Origin.MarshalText = %q, %v", b, err)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Name() != "" || tr.Stripes() != 0 || tr.Stripe(0) != nil || tr.Drain() != nil {
		t.Fatal("nil Tracer accessors not inert")
	}
	tr.Attach(4, 2)
	tr.Close()
	s := tr.Snapshot()
	if len(s.Ops) != 0 {
		t.Fatalf("nil Tracer snapshot has ops: %+v", s)
	}

	var st *StripeTracer
	st.Begin(OpInsert, nil)
	if st.Active() {
		t.Fatal("nil StripeTracer active")
	}
	st.SetOrigin(OriginHead)
	st.End(nil, 1, true)
}

func TestDisabledIsInert(t *testing.T) {
	withEnabled(t, false)
	tr := newTestTracer(t, "disabled_inert", 1)
	st := tr.Stripe(0)
	st.Begin(OpInsert, nil)
	if st.Active() {
		t.Fatal("Active() true while disabled")
	}
	st.SetOrigin(OriginHead)
	st.End(nil, 7, true)
	if ev := tr.Drain(); len(ev) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(ev))
	}
	if s := tr.Snapshot(); len(s.Ops) != 0 {
		t.Fatalf("disabled tracer counted ops: %+v", s.Ops)
	}
}

func TestAttachIdempotentAndGrowing(t *testing.T) {
	tr := newTestTracer(t, "attach_grow", 2)
	s0 := tr.Stripe(0)
	tr.Attach(2, 4) // same size: no change
	if tr.Stripes() != 2 || tr.Stripe(0) != s0 {
		t.Fatal("idempotent re-attach replaced stripes")
	}
	tr.Attach(4, 4) // grows, keeps existing
	if tr.Stripes() != 4 || tr.Stripe(0) != s0 || tr.Stripe(3) == nil {
		t.Fatal("growing attach broke existing stripes")
	}
	tr.Attach(1, 4) // never shrinks
	if tr.Stripes() != 4 {
		t.Fatalf("attach shrank stripes to %d", tr.Stripes())
	}
	if tr.Stripe(-1) != nil || tr.Stripe(99) != nil {
		t.Fatal("out-of-range Stripe not nil")
	}
}

// traceOps records a fixed mix on the given stripe: 3 inserts (1 fail, one
// head origin), 2 gets (local jumps).
func traceOps(st *StripeTracer, rec *stats.ThreadRecorder) {
	st.Begin(OpInsert, rec)
	st.End(rec, 1, true)
	st.Begin(OpInsert, rec)
	st.SetOrigin(OriginHead)
	st.End(rec, 2, false)
	st.Begin(OpInsert, rec)
	st.End(rec, 3, true)
	st.Begin(OpGet, rec)
	st.SetOrigin(OriginLocalJump)
	st.End(rec, 1, true)
	st.Begin(OpGet, rec)
	st.SetOrigin(OriginLocalJump)
	st.End(rec, 2, true)
}

func TestTracerEndToEnd(t *testing.T) {
	withEnabled(t, true)
	tr := newTestTracer(t, "end_to_end", 2)
	traceOps(tr.Stripe(0), nil)
	traceOps(tr.Stripe(1), nil)

	events := tr.Drain()
	if len(events) != 10 {
		t.Fatalf("drained %d events, want 10", len(events))
	}
	perStripe := map[int32]int{}
	for _, e := range events {
		perStripe[e.Stripe]++
		if e.LatencyNs < 0 || e.StartNs < 0 {
			t.Fatalf("negative timing in %+v", e)
		}
		if e.Kind != OpInsert && e.Kind != OpGet {
			t.Fatalf("unexpected kind in %+v", e)
		}
	}
	if perStripe[0] != 5 || perStripe[1] != 5 {
		t.Fatalf("events per stripe = %v, want 5 each", perStripe)
	}
	// Drain is incremental: a second drain is empty.
	if again := tr.Drain(); len(again) != 0 {
		t.Fatalf("second drain returned %d events", len(again))
	}

	s := tr.Snapshot()
	if !s.Enabled || s.Stripes != 2 || s.Name != tr.Name() {
		t.Fatalf("snapshot header wrong: %+v", s)
	}
	ins, ok := s.Ops["insert"]
	if !ok || ins.Count != 6 || ins.Fails != 2 {
		t.Fatalf("insert snapshot wrong: %+v (ok=%v)", ins, ok)
	}
	if ins.Origins["local-hit"] != 4 || ins.Origins["head"] != 2 {
		t.Fatalf("insert origins wrong: %v", ins.Origins)
	}
	// 4 local of 6 attributed → 2/3 locality.
	if r := ins.LocalityRate(); r < 0.66 || r > 0.67 {
		t.Fatalf("insert locality %.3f, want ~0.667", r)
	}
	get := s.Ops["get"]
	if get.Count != 4 || get.Fails != 0 || get.Origins["local-jump"] != 4 {
		t.Fatalf("get snapshot wrong: %+v", get)
	}
	if get.LocalityRate() != 1 {
		t.Fatalf("get locality %.3f, want 1", get.LocalityRate())
	}
	// Percentiles are bucketed upper bounds, so don't compare them against
	// the exact max; just require the histogram saw every op.
	if ins.Latency.Count != 6 || ins.Latency.MaxNs <= 0 || ins.Latency.P50Ns <= 0 {
		t.Fatalf("insert latency summary wrong: %+v", ins.Latency)
	}
	if _, ok := s.Ops["remove"]; ok {
		t.Fatal("snapshot reports a kind that never ran")
	}
}

// TestEndCountsDeltas verifies End attributes recorder counters as deltas
// from Begin, not absolutes.
func TestEndCountsDeltas(t *testing.T) {
	withEnabled(t, true)
	tr := newTestTracer(t, "deltas", 1)
	st := tr.Stripe(0)
	rec := new(stats.ThreadRecorder)

	// Pre-existing counts must not leak into the first traced op.
	rec.Visit()
	rec.Visit()
	rec.Search()
	rec.Relink(3)

	st.Begin(OpInsert, rec)
	rec.Search()
	rec.Visit()
	rec.Visit()
	rec.Visit()
	rec.Relink(2)
	rec.Deferral()
	st.End(rec, 42, true)

	events := tr.Drain()
	if len(events) != 1 {
		t.Fatalf("drained %d events", len(events))
	}
	e := events[0]
	if e.Searches != 1 || e.Visited != 3 || e.RelinkNodes != 2 || e.Deferrals != 1 {
		t.Fatalf("delta attribution wrong: %+v", e)
	}
	// levels = searches × attached descent depth (4).
	if e.Levels != 4 {
		t.Fatalf("levels = %d, want 4", e.Levels)
	}
	s := tr.Snapshot().Ops["insert"]
	if s.Visited != 3 || s.Relinks != 1 || s.RelinkNodes != 2 || s.Deferrals != 1 {
		t.Fatalf("aggregated deltas wrong: %+v", s)
	}
}

// TestTracerConcurrent runs one producer per stripe against concurrent
// Drain/Snapshot readers under the race detector.
func TestTracerConcurrent(t *testing.T) {
	withEnabled(t, true)
	const stripes, opsPer = 4, 2000
	tr := newTestTracer(t, "concurrent", stripes)
	var wg sync.WaitGroup
	for i := 0; i < stripes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := tr.Stripe(i)
			for j := 0; j < opsPer; j++ {
				st.Begin(OpKind(1+j%4), nil)
				if j%3 == 0 {
					st.SetOrigin(OriginHead)
				}
				st.End(nil, uint64(j), j%2 == 0)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 50; k++ {
			tr.Drain()
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	var total uint64
	for _, op := range tr.Snapshot().Ops {
		total += op.Count
	}
	if total != stripes*opsPer {
		t.Fatalf("aggregated %d ops, want %d", total, stripes*opsPer)
	}
}

func TestDisabledPathAllocationFree(t *testing.T) {
	withEnabled(t, false)
	tr := newTestTracer(t, "alloc_disabled", 1)
	st := tr.Stripe(0)
	if n := testing.AllocsPerRun(1000, func() {
		st.Begin(OpInsert, nil)
		st.SetOrigin(OriginHead)
		st.End(nil, 1, true)
	}); n != 0 {
		t.Fatalf("disabled trace path allocates %.1f bytes-of-allocs/op, want 0", n)
	}
	var nilSt *StripeTracer
	if n := testing.AllocsPerRun(1000, func() {
		nilSt.Begin(OpInsert, nil)
		nilSt.End(nil, 1, true)
	}); n != 0 {
		t.Fatalf("nil StripeTracer path allocates %.1f/op, want 0", n)
	}
}

func TestEnabledPathAllocationFree(t *testing.T) {
	withEnabled(t, true)
	tr := newTestTracer(t, "alloc_enabled", 1)
	st := tr.Stripe(0)
	rec := new(stats.ThreadRecorder)
	if n := testing.AllocsPerRun(1000, func() {
		st.Begin(OpGet, rec)
		st.SetOrigin(OriginLocalJump)
		st.End(rec, 99, true)
	}); n != 0 {
		t.Fatalf("enabled trace path allocates %.1f/op, want 0", n)
	}
}

func TestRegistryUniquifiesNames(t *testing.T) {
	a := NewTracer(TracerConfig{Name: "dup_name"})
	b := NewTracer(TracerConfig{Name: "dup_name"})
	c := NewTracer(TracerConfig{Name: "dup_name"})
	defer a.Close()
	defer b.Close()
	defer c.Close()
	if a.Name() != "dup_name" || b.Name() != "dup_name#2" || c.Name() != "dup_name#3" {
		t.Fatalf("uniquified names: %q %q %q", a.Name(), b.Name(), c.Name())
	}
	all := SnapshotAll()
	for _, name := range []string{"dup_name", "dup_name#2", "dup_name#3"} {
		if _, ok := all[name]; !ok {
			t.Fatalf("SnapshotAll missing %q (have %d tracers)", name, len(all))
		}
	}
	b.Close()
	if _, ok := SnapshotAll()["dup_name#2"]; ok {
		t.Fatal("closed tracer still in SnapshotAll")
	}
	// Close is idempotent.
	b.Close()
}

func TestExpvarPublished(t *testing.T) {
	tr := newTestTracer(t, "expvar_check", 1)
	v := expvar.Get(expvarName)
	if v == nil {
		t.Fatalf("expvar %q not published", expvarName)
	}
	var all map[string]Snapshot
	if err := json.Unmarshal([]byte(v.String()), &all); err != nil {
		t.Fatalf("expvar %q is not snapshot JSON: %v", expvarName, err)
	}
	if _, ok := all[tr.Name()]; !ok {
		t.Fatalf("expvar snapshot missing tracer %q", tr.Name())
	}
}

func TestSnapshotWriters(t *testing.T) {
	withEnabled(t, true)
	tr := newTestTracer(t, "writers", 1)
	traceOps(tr.Stripe(0), nil)
	s := tr.Snapshot()

	var txt bytes.Buffer
	if err := s.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{
		"tracer writers (enabled=true, stripes=1)",
		"insert", "count=3", "fails=1",
		"get", "count=2",
		"origin local-hit", "origin head", "origin local-jump",
		"latency p50=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON not round-trippable: %v", err)
	}
	if back.Name != s.Name || back.Ops["insert"].Count != 3 ||
		back.Ops["insert"].Origins["head"] != 1 || back.Ops["get"].Latency.Count != 2 {
		t.Fatalf("JSON round trip lost data:\n%s", js.String())
	}
}
