package node

import (
	"sync"
	"testing"

	"layeredsg/internal/atomicmark"
)

func TestArenaIndexZeroIsNil(t *testing.T) {
	a := NewArena[int, int](2, 1)
	if a.At(0) != nil {
		t.Fatal("index 0 did not resolve to nil")
	}
	// The first allocation must not receive index 0 (shard 0's slot 0 is
	// burned at construction).
	n := a.NewData(1, 1, 0, 0, Owner{}, 1, 0)
	if n.ArenaIndex() == 0 {
		t.Fatal("allocated node received the reserved nil index")
	}
	if a.At(n.ArenaIndex()) != n {
		t.Fatal("At did not round-trip the first allocation")
	}
}

func TestArenaRoundTripAcrossChunks(t *testing.T) {
	a := NewArena[int, int](1, 2)
	// Allocate past a chunk boundary so At must walk the grown chunk table.
	nodes := make([]*Node[int, int], 3*arenaChunkSlots/2)
	for i := range nodes {
		nodes[i] = a.NewData(i, i, 1, 0, Owner{}, uint64(i+1), 0)
	}
	for i, n := range nodes {
		if got := a.At(n.ArenaIndex()); got != n {
			t.Fatalf("node %d: At(%d) = %p want %p", i, n.ArenaIndex(), got, n)
		}
		if n.Key() != i {
			t.Fatalf("node %d: key %d", i, n.Key())
		}
	}
}

func TestArenaShardRouting(t *testing.T) {
	a := NewArena[int, int](2, 1)
	n0 := a.NewData(1, 1, 0, 0, Owner{Thread: 0, Node: 0}, 1, 0)
	n1 := a.NewData(2, 2, 0, 0, Owner{Thread: 4, Node: 1}, 2, 0)
	if got := n0.ArenaIndex() >> arenaPosBits; got != 0 {
		t.Fatalf("node-0 owner allocated on shard %d", got)
	}
	if got := n1.ArenaIndex() >> arenaPosBits; got != 1 {
		t.Fatalf("node-1 owner allocated on shard %d", got)
	}
	// Owners beyond the shard count clamp to shard 0 instead of panicking.
	n2 := a.NewData(3, 3, 0, 0, Owner{Thread: 9, Node: 7}, 3, 0)
	if got := n2.ArenaIndex() >> arenaPosBits; got != 0 {
		t.Fatalf("out-of-range owner allocated on shard %d", got)
	}
}

func TestArenaConcurrentAlloc(t *testing.T) {
	a := NewArena[int, int](2, 3)
	const goroutines, each = 8, 2000
	var wg sync.WaitGroup
	out := make([][]*Node[int, int], goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := Owner{Thread: int32(g), Node: int32(g % 2)}
			for i := 0; i < each; i++ {
				out[g] = append(out[g], a.NewData(i, i, 2, 0, own, uint64(g*each+i+1), 0))
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint32]bool, goroutines*each)
	for g := range out {
		for _, n := range out[g] {
			idx := n.ArenaIndex()
			if idx == 0 || seen[idx] {
				t.Fatalf("index %d duplicated or zero", idx)
			}
			seen[idx] = true
			if a.At(idx) != n {
				t.Fatalf("At(%d) does not round-trip", idx)
			}
		}
	}
	st := a.Stats()
	// +1 for the burned nil slot on shard 0.
	if st.SlotsUsed != goroutines*each+1 {
		t.Fatalf("SlotsUsed = %d want %d", st.SlotsUsed, goroutines*each+1)
	}
	if st.SlotsReserved < st.SlotsUsed || st.Chunks == 0 {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestArenaDataNodeInitialState(t *testing.T) {
	a := NewArena[int, string](1, 4)
	n := a.NewData(7, "seven", 3, 0b101, Owner{Thread: 1, Node: 0}, 42, 1000)
	if n.Key() != 7 || n.Value() != "seven" || !n.IsData() || n.TopLevel() != 3 {
		t.Fatal("payload wrong")
	}
	for level := 0; level <= 3; level++ {
		snap := n.RawLoad(level)
		if snap.Next != nil || snap.Marked || !snap.Valid {
			t.Fatalf("level %d initial state %+v", level, snap)
		}
	}
}

func TestArenaSentinels(t *testing.T) {
	a := NewArena[int, int](1, 4)
	tail := a.NewTail(3, 1)
	head := a.NewHead(3, 0b1, tail, 2)
	if head.RawNext(3) != tail {
		t.Fatal("head not pointing at tail")
	}
	for level := 0; level <= 3; level++ {
		if tail.RawMarked(level) {
			t.Fatalf("tail level %d marked", level)
		}
	}
}

func TestArenaLinkOpsThroughNodeAPI(t *testing.T) {
	a := NewArena[int, int](1, 2)
	tail := a.NewTail(1, 1)
	head := a.NewHead(1, 0, tail, 2)
	n := a.NewData(5, 5, 1, 0, Owner{}, 3, 0)

	n.RawStore(1, tail, false, true)
	if !head.RawCASNext(1, tail, n) {
		t.Fatal("link CAS failed")
	}
	if head.RawNext(1) != n || n.RawNext(1) != tail {
		t.Fatal("link did not take")
	}
	// Mark n's reference and relink head past it with a full-snapshot CAS.
	if !n.CASMark(1, false, true, nil) {
		t.Fatal("mark failed")
	}
	exp := head.RawLoad(1)
	if exp.Next != n {
		t.Fatalf("head snapshot %+v", exp)
	}
	want := exp
	want.Next = tail
	if !head.CASSnapshot(1, exp, want, nil) {
		t.Fatal("relink CASSnapshot failed")
	}
	if head.RawNext(1) != tail {
		t.Fatal("relink did not take")
	}
}

// TestArenaRejectsTallNodes checks that a data node may span at most the
// levels its arena was built with, below and above the inline words.
func TestArenaRejectsTallNodes(t *testing.T) {
	for _, levels := range []int{3, MaxArenaLevels, 18} {
		a := NewArena[int, int](1, levels)
		a.NewData(1, 1, levels-1, 0, Owner{}, 1, 0) // the tallest legal node
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewData at top level %d on a %d-level arena did not panic", levels, levels)
				}
			}()
			a.NewData(2, 2, levels, 0, Owner{}, 2, 0)
		}()
	}
}

// TestArenaRejectsTooManyLevels checks the 127-level cap that keeps a
// node's topLevel within its int8.
func TestArenaRejectsTooManyLevels(t *testing.T) {
	NewArena[int, int](1, 127)
	defer func() {
		if recover() == nil {
			t.Fatal("NewArena accepted 128 levels")
		}
	}()
	NewArena[int, int](1, 128)
}

// TestArenaTallNodeOverflowWords drives a node of an arena taller than the
// inline words (the LC skip-list baseline's height 17): its levels above
// MaxArenaLevels link, mark and CAS through the chunk overflow array, and a
// freed and reused slot comes back with every word reset.
func TestArenaTallNodeOverflowWords(t *testing.T) {
	const top = 17
	a := NewArena[int, int](1, top+1)
	tail := a.NewTail(top, 1)
	n := a.NewData(5, 5, top, 0, Owner{}, 2, 0)
	m := a.NewData(6, 6, top, 0, Owner{}, 3, 0)
	for level := 0; level <= top; level++ {
		if snap := n.RawLoad(level); snap.Next != nil || snap.Marked || !snap.Valid {
			t.Fatalf("level %d initial state %+v", level, snap)
		}
		n.RawStore(level, tail, false, true)
		m.RawStore(level, tail, false, true)
	}
	// Neighbouring nodes of one chunk own disjoint overflow windows.
	if !n.RawCASNext(top, tail, m) || m.RawNext(top) != tail || n.RawNext(top) != m {
		t.Fatal("overflow-level link did not take, or leaked into a neighbour")
	}
	if !n.CASMark(top, false, true, nil) || !n.RawMarked(top) || n.RawMarked(top-1) {
		t.Fatal("overflow-level mark wrong")
	}
	a.Free(n)
	r := a.NewData(7, 7, 0, 0, Owner{}, 4, 0)
	if r != n {
		t.Fatal("freed slot was not reused")
	}
	for level := MaxArenaLevels; level <= top; level++ {
		if w := r.word(level).Load(); w != (atomicmark.PackedSnapshot{}) {
			t.Fatalf("reused slot's overflow word %d = %+v, want reset", level, w)
		}
	}
}
