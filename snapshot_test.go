package layeredsg

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapshotTestMap builds a lazy map with an injected clock (so commission
// periods expire deterministically fast) — the configuration under which the
// epoch/snapshot machinery is active. The thread count is deliberately not
// clamped to the host's cores: a 2-thread machine has maxLevel 0, and the
// walks and relinks above level 0 would go untested.
func snapshotTestMap(t *testing.T, threads int) (*Map[int64, int64], *atomic.Int64) {
	t.Helper()
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          testMachine(t, threads),
		Kind:             LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
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
	m, now := snapshotTestMap(t, 4)
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
	// An insert's search from a handle with no local entries walks over the
	// dead node past its commission period and retires it; the passes then
	// relink, arm and free it. (A read or removal of an absent key would not
	// search: the index proves the key absent.)
	now.Add(1 << 20)
	if !m.Handle(1).Insert(1<<40, 0) || !m.Handle(1).Remove(1<<40) {
		t.Fatalf("Insert and Remove of a fresh key failed")
	}
	base := m.SharedStructure().ArenaStats().SlotsReclaimed
	for i := 0; i < 200; i++ {
		m.Reclaim()
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
// mutation and reclamation happens in between; a goroutine forces
// reclamation passes throughout.
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Reclaim()
			runtime.Gosched()
		}
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

// TestReclaimPlateau checks the capacity claim at small scale: under a
// drifting key window, past the reclamation floor of 4,096 dead nodes,
// retired slots cycle back through the free lists, so the number of carved
// slots plateaus at the live keys plus the floor plus the pass pipeline
// instead of growing with every allocation.
func TestReclaimPlateau(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	h := m.Handle(0)

	const (
		floor    = 4096
		keySpace = 1024
		cycles   = 16
	)
	for c := int64(0); c < cycles; c++ {
		base := c * keySpace
		for k := base; k < base+keySpace; k++ {
			if !h.Insert(k, k) {
				t.Fatalf("cycle %d: Insert(%d) failed", c, k)
			}
		}
		for k := base; k < base+keySpace; k++ {
			if !h.Remove(k) {
				t.Fatalf("cycle %d: Remove(%d) failed", c, k)
			}
		}
		m.Reclaim()
		m.Reclaim()
	}
	// Drain the pipeline completely.
	st := m.Reclaim()
	for i := 0; i < 8 && st.LimboDepth > 0; i++ {
		st = m.Reclaim()
	}
	if st.LimboDepth != 0 {
		t.Fatalf("limbo did not drain: %+v", st)
	}
	if st.Retired == 0 || st.Freed == 0 {
		t.Fatalf("passes retired or freed nothing after %d churn cycles: %+v", cycles, st)
	}
	as := m.SharedStructure().ArenaStats()
	if as.SlotsReused == 0 {
		t.Fatalf("no slots reused after %d churn cycles", cycles)
	}
	// Without reclamation the churn would carve keySpace*cycles slots; with
	// it, carving must plateau near the floor.
	carvedCeiling := uint64(floor + 4*keySpace)
	if as.SlotsUsed > carvedCeiling {
		t.Fatalf("carved slots did not plateau: SlotsUsed = %d (> %d; %d total inserts, %d reclaimed, %d reused)",
			as.SlotsUsed, carvedCeiling, keySpace*cycles, as.SlotsReclaimed, as.SlotsReused)
	}
	// Everything was removed and drained: what stays is the floor's dead
	// nodes, kept for revivals, plus sentinels.
	if live := as.SlotsLive(); live > floor+64 {
		t.Fatalf("live slots did not drain to the floor: %d (used %d, free %d)", live, as.SlotsUsed, as.SlotsFree)
	}
}

// TestSnapshotSurvivesReclaim opens a snapshot, then removes its keys and
// churns fresh keys past the reclamation floor under forced passes. The
// removed nodes are the oldest dead nodes, so the passes would retire them
// first, but the snapshot predates their removal: the retire gate must keep
// every one of them linked and unretired, and the snapshot must still read
// the pre-removal values. Once it closes, the passes retire them.
func TestSnapshotSurvivesReclaim(t *testing.T) {
	m, _ := snapshotTestMap(t, 4)
	defer m.Close()
	h := m.Handle(0)
	const (
		keys  = 64
		churn = 6000
	)
	want := map[int64]int64{}
	for k := int64(0); k < keys; k++ {
		h.Insert(k, k*7)
		want[k] = k * 7
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for k := int64(0); k < keys; k++ {
		if !h.Remove(k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	h1 := m.Handle(1)
	for k := int64(1 << 20); k < 1<<20+churn; k++ {
		h1.Insert(k, k)
		h1.Remove(k)
		if k%1024 == 0 {
			m.Reclaim()
		}
	}
	for i := 0; i < 4; i++ {
		m.Reclaim()
	}
	if st := m.Reclaim(); st.Retired != 0 {
		t.Fatalf("passes retired %d nodes under a snapshot older than every removal", st.Retired)
	}
	// Every removed node is still linked at level 0, unmarked.
	seen := 0
	for n := m.SharedStructure().BottomHead().RawNext(0); n.IsData(); n = n.RawNext(0) {
		if n.Key() >= keys {
			continue
		}
		if marked, _ := n.RawMarkValid(); marked {
			t.Fatalf("key %d retired while a snapshot from before its removal is open", n.Key())
		}
		seen++
	}
	if seen != keys {
		t.Fatalf("%d of %d removed nodes still linked while the snapshot is open", seen, keys)
	}
	wantSnapshot(t, snap, want)
	snap.Close()

	for i := 0; i < 4; i++ {
		m.Reclaim()
	}
	if st := m.Reclaim(); st.Retired == 0 {
		t.Fatalf("no dead node retired after the snapshot closed: %+v", st)
	}
	for n := m.SharedStructure().BottomHead().RawNext(0); n.IsData(); n = n.RawNext(0) {
		if n.Key() < keys {
			t.Fatalf("key %d still linked after the snapshot closed and the passes ran", n.Key())
		}
	}
}

// TestSnapshotVisit checks a snapshot's range visit against the full walk:
// AscendFrom yields exactly the keys at or above its lower bound, in order,
// with the values Ascend saw, and stops when the callback returns false.
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
	if len(want) != n {
		t.Fatalf("Ascend saw %d entries, want %d", len(want), n)
	}
	next := int64(n / 2)
	snap.AscendFrom(n/2, func(k, v int64) bool {
		if k != next {
			t.Fatalf("AscendFrom(%d) yielded %d, want %d", int64(n/2), k, next)
		}
		if v != want[k] {
			t.Fatalf("AscendFrom key %d = %d, Ascend had %d", k, v, want[k])
		}
		next++
		return true
	})
	if next != n {
		t.Fatalf("AscendFrom(%d) stopped before key %d, want all %d keys at or above it", int64(n/2), next, n/2)
	}

	count := 0
	snap.AscendFrom(n/2, func(int64, int64) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("AscendFrom made %d callbacks, want it to stop at the third, which returned false", count)
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

// TestInlineRetireReachesLimbo checks that search-time retirement reaches
// the limbo through the Retire funnel: the paper's checkRetire marks expired
// dead nodes that an update's search walks over, and without the observer's
// hand-off their slots would be permanent garbage (a marked node is never
// dead again, so no pass would retire it). The removed keys stay within the
// reclamation floor, so the passes retire none of them themselves.
func TestInlineRetireReachesLimbo(t *testing.T) {
	var now atomic.Int64
	m, err := New[int64, int64](Config{
		Machine:          testMachine(t, 4),
		Kind:             LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
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
	// skipDead runs checkRetire on each expired node it walks over. The
	// update is an insert of a fresh key: a read or removal of an absent key
	// would not search, as the index proves the key absent.
	now.Add(1 << 20)
	h2 := m.Handle(1)
	if !h2.Insert(int64(1)<<40, 0) {
		t.Fatalf("Insert of a fresh key failed")
	}
	st := m.Reclaim()
	if st.LimboDepth < keys/2 {
		t.Fatalf("limbo depth %d after churn, want >= %d (search-time retirements not handed to limbo)", st.LimboDepth, keys/2)
	}
	if st.Retired != 0 {
		t.Fatalf("the pass retired %d nodes within the floor", st.Retired)
	}
	for i := 0; i < 8 && st.LimboDepth > 0; i++ {
		st = m.Reclaim()
	}
	if as := m.SharedStructure().ArenaStats(); as.SlotsReclaimed < keys/2 || st.LimboDepth != 0 {
		t.Fatalf("SlotsReclaimed = %d, limbo depth %d after %d removals, want >= %d freed and an empty limbo (search-time retirements leaking?)",
			as.SlotsReclaimed, st.LimboDepth, keys, keys/2)
	}
}
