package node

import (
	"sync"
	"testing"

	"layeredsg/internal/atomicmark"
)

// TestArenaRecycleABA is the slot-recycle ABA regression: after Free returns
// a slot to the free list and an allocation reuses it, a packed reference
// captured during the slot's previous life — which embeds the generation
// observed at link time — must never CAS against the new occupant, even
// though the arena index (and therefore the node pointer) is identical.
func TestArenaRecycleABA(t *testing.T) {
	a := NewArena[int64, int64](1, 1)
	owner := Owner{Thread: 0, Node: 0}
	pred := a.NewData(1, 1, 0, 0, owner, 1, 0)

	n := a.NewData(2, 2, 0, 0, owner, 2, 0)
	idx, gen := n.ArenaIndex(), n.Gen()
	pred.RawStore(0, n, false, true)
	// A reference as some word would have embedded it at link time.
	staleRef := atomicmark.MakeRef(idx, gen)
	if pred.RawLoad(0).Next != n {
		t.Fatalf("link failed")
	}

	// Retire the life: unlink, then free the slot.
	pred.RawStore(0, nil, false, true)
	a.Free(n)
	if n.ID() != 0 {
		t.Fatalf("Free left life ID %d, want 0", n.ID())
	}

	// The next allocation on the shard must come from the free list: same
	// slot, bumped generation.
	n2 := a.NewData(3, 33, 0, 0, owner, 3, 0)
	if n2.ArenaIndex() != idx {
		t.Fatalf("allocation did not recycle the freed slot: index %d, want %d", n2.ArenaIndex(), idx)
	}
	if n2 != n {
		t.Fatalf("recycled slot resolved to a different node pointer")
	}
	if n2.Gen() == gen {
		t.Fatalf("Free did not bump the reuse generation (still %d)", gen)
	}

	// Pointer identity cannot distinguish the lives; the generation tag and
	// the life ID must.
	if n2.LiveAs(2, nil) {
		t.Fatalf("LiveAs accepted the previous life's ID on a recycled slot")
	}
	if !n2.LiveAs(3, nil) {
		t.Fatalf("LiveAs rejected the current life's ID")
	}

	// Link the new life and attempt the stale CAS at the packed-word level:
	// the exp reference carries the old generation, the word holds the new
	// one — the CAS must fail despite the matching index.
	pred.RawStore(0, n2, false, true)
	if pred.w[0].CASNext(staleRef, 0) {
		t.Fatalf("stale packed reference CASed across a slot recycle (ABA)")
	}
	if got := pred.RawLoad(0).Next; got != n2 {
		t.Fatalf("stale CAS corrupted the link: next = %v", got)
	}
	// The current-generation reference still works.
	if !pred.w[0].CASNext(atomicmark.MakeRef(idx, n2.Gen()), 0) {
		t.Fatalf("current-generation CAS failed")
	}
}

// TestArenaRecycleABAConcurrent churns one slot through many lives while a
// stale holder hammers the first life's reference at the linked word. The
// stale CAS must never land (run under -race: it also exercises the
// free-list and generation-bump paths for data races).
func TestArenaRecycleABAConcurrent(t *testing.T) {
	a := NewArena[int64, int64](1, 1)
	owner := Owner{Thread: 0, Node: 0}
	pred := a.NewData(1, 1, 0, 0, owner, 1, 0)

	first := a.NewData(2, 2, 0, 0, owner, 2, 0)
	idx := first.ArenaIndex()
	pred.RawStore(0, first, false, true)
	staleRef := atomicmark.MakeRef(idx, first.Gen())
	pred.RawStore(0, nil, false, true)
	a.Free(first)

	const rounds = 500
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < rounds; i++ {
			n := a.NewData(2, int64(i), 0, 0, owner, uint64(10+i), 0)
			if n.ArenaIndex() != idx {
				t.Errorf("round %d: allocation left the recycled slot (index %d)", i, n.ArenaIndex())
				return
			}
			pred.RawStore(0, n, false, true)
			pred.RawStore(0, nil, false, true)
			a.Free(n)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if pred.w[0].CASNext(staleRef, 0) {
				t.Errorf("stale reference CASed against a later life of the slot")
				return
			}
		}
	}()
	wg.Wait()

	st := a.Stats()
	if st.SlotsReclaimed < rounds {
		t.Fatalf("SlotsReclaimed = %d, want >= %d", st.SlotsReclaimed, rounds)
	}
	if st.SlotsReused < rounds {
		t.Fatalf("SlotsReused = %d, want >= %d", st.SlotsReused, rounds)
	}
}
