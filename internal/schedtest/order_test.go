package schedtest

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"layeredsg/internal/node"
	"layeredsg/internal/numa"
	"layeredsg/internal/skipgraph"
	"layeredsg/internal/stats"
)

// TestLevel0StrictOrder explores seeded schedules of lazy inserts and removes
// over two keys with eager retirement, and checks after each schedule that
// level 0 holds strictly increasing keys, marked nodes included. The race it
// targets: an insert's search observes a node holding the key unmarked, the
// node is removed and retired before the search's final mark check, and the
// insert must then not link its own node in front of the retired one. A
// failing seed replays its exact schedule.
func TestLevel0StrictOrder(t *testing.T) {
	const (
		threads = 3
		ops     = 6
		seeds   = 300
	)
	for seed := int64(0); seed < seeds; seed++ {
		runOrderSchedule(t, seed, threads, ops)
	}
}

func runOrderSchedule(t *testing.T, seed int64, threads, ops int) {
	t.Helper()
	topo, err := numa.New(1, threads, 1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := numa.Pin(topo, threads)
	if err != nil {
		t.Fatal(err)
	}
	// A step counter as the clock keeps commission expiry a function of the
	// schedule alone.
	var clock atomic.Int64
	sg, err := skipgraph.New[int64, int64](skipgraph.Config{
		MaxLevel:         1,
		Lazy:             true,
		CommissionPeriod: 1,
		Clock:            func() int64 { return clock.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	stepper := NewStepper(seed)
	defer stepper.Stop()
	rec := stats.NewRecorder(machine, stepper)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		stepper.Register(th)
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			defer stepper.Done(th)
			tr := rec.ThreadRecorder(th)
			res := sg.NewSearchResult()
			owner := node.Owner{Thread: int32(th)}
			rng := rand.New(rand.NewSource(seed*1000 + int64(th)))
			for i := 0; i < ops; i++ {
				key := rng.Int63n(2)
				if rng.Intn(2) == 0 {
					lazyInsert(sg, key, owner, res, tr)
				} else {
					lazyRemove(sg, key, tr)
				}
			}
		}(th)
	}
	wg.Wait()
	var prev *node.Node[int64, int64]
	for n := sg.BottomHead().RawNext(0); n.IsData(); n = n.RawNext(0) {
		if prev != nil && !prev.LessThan(n.Key()) {
			t.Fatalf("seed %d: level 0 holds key %d (marked %v) after key %d (marked %v)",
				seed, n.Key(), n.RawMarked(0), prev.Key(), prev.RawMarked(0))
		}
		prev = n
	}
	if err := sg.Validate(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}

// lazyInsert is the lazy protocol's insert (Alg. 3) with eager upper-level
// linking: revive a node holding the key, or link a fresh one.
func lazyInsert(sg *skipgraph.SG[int64, int64], key int64, owner node.Owner, res *skipgraph.SearchResult[int64, int64], tr *stats.ThreadRecorder) {
	var fresh *node.Node[int64, int64]
	for {
		if sg.LazyRelinkSearch(key, nil, 0, res, tr) {
			if done, _ := sg.InsertHelper(res.Succs[0], tr); done {
				return
			}
			continue
		}
		if fresh == nil {
			fresh = sg.NewNode(key, key, 0, owner, sg.MaxLevel())
		}
		if sg.LinkLevel0(res, fresh, tr) {
			sg.FinishInsert(fresh, nil, nil, res, tr)
			return
		}
	}
}

// lazyRemove is the lazy protocol's remove (Alg. 7): clear the valid bit of
// an unmarked node holding the key.
func lazyRemove(sg *skipgraph.SG[int64, int64], key int64, tr *stats.ThreadRecorder) {
	for {
		found, ok := sg.RetireSearch(key, nil, 0, tr)
		if !ok {
			return
		}
		if done, _ := sg.RemoveHelper(found, tr); done {
			return
		}
	}
}
