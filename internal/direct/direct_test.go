package direct

import (
	"math/rand"
	"sync"
	"testing"

	"layeredsg/internal/numa"
)

func machine(t *testing.T, threads int) *numa.Machine {
	t.Helper()
	topo, err := numa.New(2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func shapes() []Shape { return []Shape{SkipList, SkipGraph, LinkedList} }

func newMap(t *testing.T, shape Shape, threads int) *Map[int64, int64] {
	t.Helper()
	m, err := New[int64, int64](Config{
		Machine: machine(t, threads),
		Shape:   shape,
		Height:  8,
		Seed:    3,
	})
	if err != nil {
		t.Fatalf("New(%v): %v", shape, err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := New[int64, int64](Config{Shape: SkipList}); err == nil {
		t.Fatal("nil machine accepted")
	}
	if _, err := New[int64, int64](Config{Machine: machine(t, 2), Shape: SkipList}); err == nil {
		t.Fatal("skip list without height accepted")
	}
	if _, err := New[int64, int64](Config{Machine: machine(t, 2), Shape: Shape(9)}); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestSequentialModel(t *testing.T) {
	for _, shape := range shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			replayModel(t, newMap(t, shape, 2))
		})
	}
	// The LC skip list (height log2 of a 2^17 key space) is taller than the
	// nodes' inline level words: its upper levels link through the arena's
	// per-chunk overflow words.
	t.Run("skiplist_lc", func(t *testing.T) {
		m, err := New[int64, int64](Config{Machine: machine(t, 2), Shape: SkipList, Height: 17, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		replayModel(t, m)
		if st := m.SharedStructure().ArenaStats(); st.SlotsUsed == 0 {
			t.Fatalf("height-17 skip list reports no arena slots: %+v", st)
		}
		if err := m.SharedStructure().Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// replayModel drives one handle through a random insert/remove/get sequence
// against a map model.
func replayModel(t *testing.T, m *Map[int64, int64]) {
	t.Helper()
	h := m.Handle(0)
	model := make(map[int64]bool)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5000; i++ {
		key := rng.Int63n(200)
		switch rng.Intn(3) {
		case 0:
			if got, want := h.Insert(key, key*2), !model[key]; got != want {
				t.Fatalf("op %d Insert(%d)=%v want %v", i, key, got, want)
			}
			model[key] = true
		case 1:
			if got, want := h.Remove(key), model[key]; got != want {
				t.Fatalf("op %d Remove(%d)=%v want %v", i, key, got, want)
			}
			delete(model, key)
		default:
			v, ok := h.Get(key)
			if ok != model[key] {
				t.Fatalf("op %d Get(%d) present=%v want %v", i, key, ok, model[key])
			}
			if ok && v != key*2 {
				t.Fatalf("op %d Get(%d) value=%d", i, key, v)
			}
		}
	}
	if m.Len() != len(model) {
		t.Fatalf("Len=%d model=%d", m.Len(), len(model))
	}
}

func TestConcurrentContention(t *testing.T) {
	const threads = 8
	for _, shape := range shapes() {
		t.Run(shape.String(), func(t *testing.T) {
			m := newMap(t, shape, threads)
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					h := m.Handle(th)
					rng := rand.New(rand.NewSource(int64(th)))
					for i := 0; i < 2000; i++ {
						k := rng.Int63n(64)
						switch rng.Intn(3) {
						case 0:
							h.Insert(k, k)
						case 1:
							h.Remove(k)
						default:
							h.Contains(k)
						}
					}
				}(th)
			}
			wg.Wait()
			keys := m.Keys()
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("bottom list unsorted/duplicated: %v", keys)
				}
			}
		})
	}
}

// TestSkipGraphPartitionHeight checks the non-layered skip graph derives its
// height from the thread count, as the paper prescribes.
func TestSkipGraphPartitionHeight(t *testing.T) {
	m := newMap(t, SkipGraph, 8)
	if got := m.SharedStructure().MaxLevel(); got != 2 {
		t.Fatalf("height = %d want 2 for 8 threads", got)
	}
	ll := newMap(t, LinkedList, 8)
	if got := ll.SharedStructure().MaxLevel(); got != 0 {
		t.Fatalf("linked list height = %d", got)
	}
	sl := newMap(t, SkipList, 8)
	if got := sl.SharedStructure().MaxLevel(); got != 8 {
		t.Fatalf("skip list height = %d want Height", got)
	}
}
