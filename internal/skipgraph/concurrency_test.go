package skipgraph

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"layeredsg/internal/node"
)

// TestConcurrentInsertSameKey: exactly one of many concurrent inserters of
// the same key may link a node; the rest must observe a duplicate.
func TestConcurrentInsertSameKey(t *testing.T) {
	for iter := 0; iter < 60; iter++ {
		sg := newSG(t, Config{MaxLevel: 2})
		const workers = 6
		wins := make([]bool, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				res := sg.NewSearchResult()
				var toInsert *node.Node[int64, int64]
				for {
					if sg.LazyRelinkSearch(42, nil, uint32(w)&3, res, nil) {
						return // duplicate
					}
					if toInsert == nil {
						toInsert = sg.NewNode(42, int64(w), uint32(w)&3, node.Owner{Thread: int32(w)}, 2)
					}
					runtime.Gosched()
					if sg.LinkLevel0(res, toInsert, nil) {
						sg.FinishInsert(toInsert, nil, nil, res, nil)
						wins[w] = true
						return
					}
				}
			}(w)
		}
		wg.Wait()
		winners := 0
		for _, won := range wins {
			if won {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("iter %d: %d winners", iter, winners)
		}
		if sg.Len() != 1 {
			t.Fatalf("iter %d: Len = %d", iter, sg.Len())
		}
	}
}

// TestConcurrentRemoveSameNode: exactly one of many concurrent removers of
// the same node wins, for both protocols.
func TestConcurrentRemoveSameNode(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := "nonlazy"
		cfg := Config{MaxLevel: 2}
		if lazy {
			name = "lazy"
			cfg = Config{MaxLevel: 2, Lazy: true, CommissionPeriod: time.Hour}
		}
		t.Run(name, func(t *testing.T) {
			for iter := 0; iter < 60; iter++ {
				sg := newSG(t, cfg)
				n := insert(t, sg, 7, 0, 2)
				const workers = 6
				var removed [workers]bool
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						runtime.Gosched()
						if done, ok := sg.RemoveHelper(n, nil); done && ok {
							removed[w] = true
						}
					}(w)
				}
				wg.Wait()
				winners := 0
				for _, won := range removed {
					if won {
						winners++
					}
				}
				if winners != 1 {
					t.Fatalf("iter %d: %d remove winners", iter, winners)
				}
				if sg.Len() != 0 {
					t.Fatalf("iter %d: Len = %d", iter, sg.Len())
				}
			}
		})
	}
}

// TestConcurrentReviveVsRetire races revival against retirement of the same
// invalid node: exactly one transition must win, and the final logical state
// must match the winner.
func TestConcurrentReviveVsRetire(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		clock := int64(0)
		sg := newSG(t, Config{
			MaxLevel:         1,
			Lazy:             true,
			CommissionPeriod: time.Nanosecond,
			Clock:            func() int64 { return clock },
		})
		n := insert(t, sg, 5, 0, 1)
		if done, ok := sg.RemoveHelper(n, nil); !done || !ok {
			t.Fatal("setup removal failed")
		}
		clock = 1 << 40 // commission long expired
		var revived, retired bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			done, ok := sg.InsertHelper(n, nil)
			revived = done && ok
		}()
		go func() {
			defer wg.Done()
			retired = sg.Retire(n, nil)
		}()
		wg.Wait()
		if revived == retired {
			t.Fatalf("iter %d: revived=%v retired=%v", iter, revived, retired)
		}
		marked, valid := n.RawMarkValid()
		if revived && (marked || !valid) {
			t.Fatalf("iter %d: revived node in state %v/%v", iter, marked, valid)
		}
		if retired && (!marked || valid) {
			t.Fatalf("iter %d: retired node in state %v/%v", iter, marked, valid)
		}
	}
}

// TestConcurrentMixedChurn hammers a lazy skip graph with insert/remove/
// search across partitioned vectors and validates structural invariants:
// bottom list sorted, at most one unmarked node per key, upper-level lists
// subsets of the bottom list.
func TestConcurrentMixedChurn(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2, Lazy: true, CommissionPeriod: 100 * time.Microsecond})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vector := uint32(w) & 3
			owner := node.Owner{Thread: int32(w)}
			res := sg.NewSearchResult()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				key := rng.Int63n(96)
				switch rng.Intn(3) {
				case 0:
					for {
						if sg.LazyRelinkSearch(key, nil, vector, res, nil) {
							if done, _ := sg.InsertHelper(res.Succs[0], nil); done {
								break
							}
							continue
						}
						n := sg.NewNode(key, key, vector, owner, 2)
						if sg.LinkLevel0(res, n, nil) {
							sg.FinishInsert(n, nil, nil, res, nil)
							break
						}
					}
				case 1:
					for {
						found, ok := sg.RetireSearch(key, nil, vector, nil)
						if !ok {
							break
						}
						if done, _ := sg.RemoveHelper(found, nil); done {
							break
						}
					}
				default:
					sg.RetireSearch(key, nil, vector, nil)
				}
				if i%16 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()

	keys := sg.BottomKeys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("bottom list unsorted or duplicated: %v", keys)
		}
	}
	// Upper lists: every physically present node must also be reachable in
	// the level-0 list (no level-only orphans among unmarked nodes).
	bottom := map[*node.Node[int64, int64]]bool{}
	for n := sg.BottomHead().RawNext(0); n != nil && n.Kind() != node.Tail; n = n.RawNext(0) {
		bottom[n] = true
	}
	for level := 1; level <= 2; level++ {
		for label := uint32(0); label < 1<<uint(level); label++ {
			for n := sg.heads[level][label].RawNext(level); n != nil && n.Kind() != node.Tail; n = n.RawNext(level) {
				if !n.RawMarked(0) && !bottom[n] {
					t.Fatalf("unmarked node %d at level %d missing from bottom list", n.Key(), level)
				}
			}
		}
	}
}

// TestSprayLandsNearFront: the spray descent must return nodes close to the
// head of the bottom list.
func TestSprayLandsNearFront(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2})
	for k := int64(0); k < 500; k++ {
		insert(t, sg, k, uint32(k)&3, 2)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		landed := sg.Spray(uint32(i)&3, rng, 3, nil)
		if landed.Kind() == node.Head {
			continue
		}
		if landed.Key() > 60 {
			t.Fatalf("spray landed at key %d, far from the front", landed.Key())
		}
	}
}
