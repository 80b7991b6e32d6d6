package layeredsg

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapshotTestMap builds a lazy, background-maintained map with an injected
// clock (so commission periods expire deterministically fast) — the
// configuration under which the epoch/snapshot machinery is active.
// The thread count is deliberately not clamped to the host's cores: a
// 2-thread machine has maxLevel 0, where the lazy protocol never hands the
// engine any work and the reclamation pipeline sits idle.
func snapshotTestMap(t *testing.T, threads int) (*Map[int64, int64], *atomic.Int64) {
	t.Helper()
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          testMachine(t, threads),
		Kind:             LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
		Maintenance:      MaintBackground,
		Clock:            func() int64 { return now.Add(50) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m, &now
}

// collectSnapshot walks a snapshot into a map, asserting strictly increasing
// key order.
func collectSnapshot(t *testing.T, s *Snapshot[int64, int64]) map[int64]int64 {
	t.Helper()
	got := map[int64]int64{}
	prev := int64(-1 << 62)
	s.Ascend(func(k, v int64) bool {
		if k <= prev {
			t.Fatalf("snapshot keys not strictly increasing: %d after %d", k, prev)
		}
		prev = k
		got[k] = v
		return true
	})
	return got
}

func wantSnapshot(t *testing.T, s *Snapshot[int64, int64], want map[int64]int64) {
	t.Helper()
	got := collectSnapshot(t, s)
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d keys, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("snapshot key %d = (%d, %v), want %d", k, gv, ok, v)
		}
	}
}

// TestSnapshotRevivalValues pins down the documented set semantics across
// lives: a successful insert that revives a logically-deleted node restores
// the value the key carried before removal; only after the old node is
// physically retired and its slot reclaimed does a re-insert install a new
// value. Snapshots taken around the transitions observe each life's value —
// including through the revival log once a revival has overwritten the
// stamps.
func TestSnapshotRevivalValues(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	h := m.Handle(0)

	if !h.Insert(1, 100) {
		t.Fatalf("Insert(1, 100) failed")
	}
	s1, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	if !h.Remove(1) {
		t.Fatalf("Remove(1) failed")
	}
	s2, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// Revival: the key's node is logically deleted but still in the chain, so
	// this insert revives it — restoring the original value, not installing
	// the new one.
	if !h.Insert(1, 999) {
		t.Fatalf("Insert(1, 999) failed")
	}
	if v, ok := h.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) after revival = (%d, %v), want (100, true): revival must restore the pre-removal value", v, ok)
	}
	s3, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	// s1 predates the removal: its life interval was overwritten by the
	// revival and must come back through the revival log.
	wantSnapshot(t, s1, map[int64]int64{1: 100})
	// s2 sits between removal and revival: the key is absent.
	wantSnapshot(t, s2, map[int64]int64{})
	// s3 postdates the revival: the node is directly visible.
	wantSnapshot(t, s3, map[int64]int64{1: 100})
	s1.Close()
	s2.Close()
	s3.Close()

	// Retire and reclaim the node (no snapshots hold it now), then re-insert:
	// with the slot recycled a fresh node carries the new value.
	if !h.Remove(1) {
		t.Fatalf("Remove(1) failed")
	}
	base := m.SharedStructure().ArenaStats().SlotsReclaimed
	for i := 0; i < 200; i++ {
		m.Maintenance().Flush()
		if m.SharedStructure().ArenaStats().SlotsReclaimed > base {
			break
		}
	}
	if got := m.SharedStructure().ArenaStats().SlotsReclaimed; got <= base {
		t.Fatalf("slot never reclaimed after removal with no open snapshots (reclaimed %d, base %d)", got, base)
	}
	if !h.Insert(1, 555) {
		t.Fatalf("Insert(1, 555) failed")
	}
	if v, ok := h.Get(1); !ok || v != 555 {
		t.Fatalf("Get(1) after reclaim = (%d, %v), want (555, true): a fresh node installs the new value", v, ok)
	}
	s4, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	wantSnapshot(t, s4, map[int64]int64{1: 555})
	s4.Close()
}

// TestSnapshotStableUnderChurn opens snapshots while writer goroutines churn
// the key space and walks each snapshot repeatedly: every walk of one
// snapshot must yield the identical key/value set no matter how much
// mutation, maintenance, and reclamation happens in between.
func TestSnapshotStableUnderChurn(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	const keySpace = 128

	h0 := m.Handle(0)
	for k := int64(0); k < keySpace; k += 2 {
		h0.Insert(k, k*10)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stop the writers before m.Close on every exit: a failed walk must not
	// leave them churning while Close waits.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	writers := m.Threads() - 1
	if writers > 3 {
		writers = 3
	}
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.Handle(w)
			k := int64(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Insert(k, k*10)
				h.Remove((k + 7) % keySpace)
				k = (k + 13) % keySpace
			}
		}(w)
	}

	for round := 0; round < 4; round++ {
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatalf("round %d: Snapshot: %v", round, err)
		}
		func() {
			// Close the snapshot on every exit too, or m.Close waits for it.
			defer snap.Close()
			first := collectSnapshot(t, snap)
			for walk := 1; walk <= 3; walk++ {
				again := collectSnapshot(t, snap)
				if len(again) != len(first) {
					t.Fatalf("round %d walk %d: %d keys, first walk had %d", round, walk, len(again), len(first))
				}
				for k, v := range first {
					if gv, ok := again[k]; !ok || gv != v {
						t.Fatalf("round %d walk %d: key %d = (%d, %v), first walk had %d", round, walk, k, gv, ok, v)
					}
				}
			}
		}()
	}
}

// TestReclaimPlateau is the tentpole's capacity claim: under sustained
// insert/remove churn with reclamation active, retired slots cycle back
// through the free lists, so the number of carved slots plateaus at the
// working set plus pipeline depth instead of growing linearly with the
// number of allocations.
func TestReclaimPlateau(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	h := m.Handle(0)

	const (
		keySpace = 96
		cycles   = 15
	)
	for c := 0; c < cycles; c++ {
		for k := int64(0); k < keySpace; k++ {
			if !h.Insert(k, k) {
				t.Fatalf("cycle %d: Insert(%d) failed", c, k)
			}
		}
		for k := int64(0); k < keySpace; k++ {
			if !h.Remove(k) {
				t.Fatalf("cycle %d: Remove(%d) failed", c, k)
			}
		}
		for f := 0; f < 6; f++ {
			m.Maintenance().Flush()
		}
	}
	// Drain the pipeline completely.
	for i := 0; i < 200 && m.Maintenance().LimboDepth() > 0; i++ {
		m.Maintenance().Flush()
	}
	if d := m.Maintenance().LimboDepth(); d != 0 {
		t.Fatalf("limbo did not drain: depth %d", d)
	}

	st := m.SharedStructure().ArenaStats()
	if st.SlotsReclaimed == 0 {
		t.Fatalf("no slots reclaimed after %d churn cycles", cycles)
	}
	if st.SlotsReused == 0 {
		t.Fatalf("no slots reused after %d churn cycles", cycles)
	}
	// Without reclamation the churn would carve ~keySpace*cycles slots; with
	// it, carving must plateau near the working set.
	carvedCeiling := uint64(keySpace*6 + 64)
	if st.SlotsUsed > carvedCeiling {
		t.Fatalf("carved slots did not plateau: SlotsUsed = %d (> %d; %d total inserts, %d reclaimed, %d reused)",
			st.SlotsUsed, carvedCeiling, keySpace*cycles, st.SlotsReclaimed, st.SlotsReused)
	}
	// Everything was removed and drained: live slots are down to sentinels
	// plus stragglers still queued behind dedup bits.
	if live := st.SlotsLive(); live > 64 {
		t.Fatalf("live slots did not drain: %d (used %d, free %d)", live, st.SlotsUsed, st.SlotsFree)
	}
}

// TestSnapshotVisit checks the parallel visitor against the sequential walk,
// and AscendFrom's lower bound.
func TestSnapshotVisit(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	h := m.Handle(0)
	const n = 1000
	for k := int64(0); k < n; k++ {
		h.Insert(k, k*3)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer snap.Close()

	want := collectSnapshot(t, snap)
	var mu sync.Mutex
	got := map[int64]int64{}
	snap.Visit(4, func(k, v int64) {
		mu.Lock()
		got[k] = v
		mu.Unlock()
	})
	if len(got) != len(want) {
		t.Fatalf("Visit saw %d entries, Ascend saw %d", len(got), len(want))
	}
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("Visit key %d = (%d, %v), Ascend had %d", k, gv, ok, v)
		}
	}

	count := 0
	snap.AscendFrom(n/2, func(k, _ int64) bool {
		if k < n/2 {
			t.Fatalf("AscendFrom(%d) yielded %d", int64(n/2), k)
		}
		count++
		return true
	})
	if count != n/2 {
		t.Fatalf("AscendFrom(%d) yielded %d keys, want %d", int64(n/2), count, n/2)
	}
}

// TestSnapshotUnsupported: variants without the epoch machinery (the
// non-lazy kinds) refuse snapshots with an error, and their weakly
// consistent reads keep working.
func TestSnapshotUnsupported(t *testing.T) {
	t.Run("non-lazy", func(t *testing.T) {
		m, err := New[int64, int64](Config{Machine: testMachine(t, 2), Kind: LayeredSG, Seed: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer m.Close()
		if _, err := m.Snapshot(); err == nil {
			t.Fatal("Snapshot succeeded on a non-lazy map")
		}
		h := m.Handle(0)
		h.Insert(1, 10)
		if v, ok := h.Get(1); !ok || v != 10 {
			t.Fatalf("Get(1) = (%d, %v) on a non-lazy map", v, ok)
		}
	})
}

// TestStoreCloseBlocksOnSnapshot: Store.Close must not tear down the map
// while a snapshot is open, must complete once the last snapshot closes, and
// a second Close (with or without having raced a snapshot) returns promptly.
func TestStoreCloseBlocksOnSnapshot(t *testing.T) {
	var now atomic.Int64
	st, err := NewStore[int64, int64](Config{
		Machine:          testMachine(t, 4),
		Kind:             LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
		Maintenance:      MaintBackground,
		Clock:            func() int64 { return now.Add(50) },
	})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	st.Insert(1, 10)
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	done := make(chan struct{})
	go func() {
		st.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatalf("Close returned with a snapshot still open")
	case <-time.After(100 * time.Millisecond):
	}
	// The open snapshot stays fully readable while Close waits.
	wantSnapshot(t, snap, map[int64]int64{1: 10})

	snap.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("Close did not complete after the snapshot was closed")
	}

	// Double Close is idempotent and prompt.
	again := make(chan struct{})
	go func() {
		st.Close()
		close(again)
	}()
	select {
	case <-again:
	case <-time.After(10 * time.Second):
		t.Fatalf("second Close did not return")
	}

	// Snapshot on a closed store panics like every other operation.
	defer func() {
		if recover() == nil {
			t.Fatalf("Snapshot on a closed Store did not panic")
		}
	}()
	st.Snapshot()
}

// TestSnapshotSeqMonotonic: snapshot sequences never decrease, and a
// mutation between two acquisitions strictly separates them.
func TestSnapshotSeqMonotonic(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	h := m.Handle(0)
	h.Insert(1, 1)
	s1, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	h.Insert(2, 2)
	s2, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if s2.Seq() <= s1.Seq() {
		t.Fatalf("snapshot sequences not increasing across a mutation: %d then %d", s1.Seq(), s2.Seq())
	}
	wantSnapshot(t, s1, map[int64]int64{1: 1})
	wantSnapshot(t, s2, map[int64]int64{1: 1, 2: 2})
	s1.Close()
	s2.Close()
}

// TestInlineRetireReachesLimbo regresses the queue-overflow leak: when
// EnqueueRetire rejects (full queue), checkRetire falls back to inline
// retirement — and a marked node can never be re-enqueued, so without the
// EnterLimbo hand-off its slot was permanent garbage. A one-item queue with
// no Flush during the churn keeps the queue full, so nearly every expired
// node takes the inline fallback; Contains probes of each removed key steer
// the searches straight over its dead node until the commission period
// lapses and the fallback fires. The churned slots must still come back.
func TestInlineRetireReachesLimbo(t *testing.T) {
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          testMachine(t, 4),
		Kind:             LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
		Maintenance:      MaintBackground,
		MaintQueueCap:    1,
		Clock:            func() int64 { return now.Add(50) },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer m.Close()
	h := m.Handle(0)

	const keys = 256
	for k := int64(0); k < keys; k++ {
		h.Insert(k, k)
	}
	for k := int64(0); k < keys; k++ {
		h.Remove(k)
	}
	// Let every commission period lapse (expiry compares the injected clock
	// against each node's allocation stamp), then drive one update-search
	// across the whole dead region from a handle with no local jump state:
	// skipDead runs checkRetire on each expired node, the 1-item queue
	// rejects all but the first, and the rest retire inline.
	now.Add(1 << 20)
	h2 := m.Handle(1)
	if h2.Remove(int64(1) << 40) {
		t.Fatalf("Remove of absent key succeeded")
	}
	// Count hand-offs, not the limbo depth: the helpers may already have
	// freed some of the handed-off slots.
	if n := m.Maintenance().Stats().LimboEnters; n < keys/2 {
		t.Fatalf("%d limbo enters after churn, want >= %d (inline retirements not handed to limbo)", n, keys/2)
	}
	for i := 0; i < 400 && m.Maintenance().LimboDepth() > 0; i++ {
		m.Maintenance().Flush()
	}
	st := m.SharedStructure().ArenaStats()
	if st.SlotsReclaimed < keys/2 {
		t.Fatalf("SlotsReclaimed = %d after %d removals with a 1-item retire queue, want >= %d (inline retirements leaking?)",
			st.SlotsReclaimed, keys, keys/2)
	}
}
