package skipgraph

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"layeredsg/internal/membership"
	"layeredsg/internal/node"
)

func newSG(t *testing.T, cfg Config) *SG[int64, int64] {
	t.Helper()
	sg, err := New[int64, int64](cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sg
}

// insert fully inserts a key with the given vector and top level (the code
// path the layered map and direct baselines drive).
func insert(t *testing.T, sg *SG[int64, int64], key int64, vector uint32, topLevel int) *node.Node[int64, int64] {
	t.Helper()
	res := sg.NewSearchResult()
	for {
		if sg.LazyRelinkSearch(key, nil, vector, res, nil) {
			t.Fatalf("insert %d: already present", key)
		}
		n := sg.NewNode(key, key, vector, node.Owner{}, topLevel)
		if sg.LinkLevel0(res, n, nil) {
			if topLevel == 0 {
				n.MarkInserted()
			} else if !sg.FinishInsert(n, nil, nil, res, nil) {
				t.Fatalf("insert %d: finishInsert failed", key)
			}
			return n
		}
	}
}

func remove(t *testing.T, sg *SG[int64, int64], key int64, vector uint32) bool {
	t.Helper()
	for {
		found, ok := sg.RetireSearch(key, nil, vector, nil)
		if !ok {
			return false
		}
		done, removed := sg.RemoveHelper(found, nil)
		if done {
			return removed
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New[int, int](Config{MaxLevel: -1}); err == nil {
		t.Fatal("negative MaxLevel accepted")
	}
	if _, err := New[int, int](Config{MaxLevel: 31}); err == nil {
		t.Fatal("huge MaxLevel accepted")
	}
	if _, err := New[int, int](Config{MaxLevel: 21}); err == nil {
		t.Fatal("MaxLevel 21 without SingleList accepted")
	}
	if _, err := New[int, int](Config{MaxLevel: 21, SingleList: true}); err != nil {
		t.Fatal("SingleList height rejected")
	}
	if _, err := New[int, int](Config{MaxLevel: 2, Lazy: true}); err == nil {
		t.Fatal("lazy without commission period accepted")
	}
}

func TestHeadsWiring(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2})
	if len(sg.heads[0]) != 1 || len(sg.heads[1]) != 2 || len(sg.heads[2]) != 4 {
		t.Fatalf("head counts: %d/%d/%d", len(sg.heads[0]), len(sg.heads[1]), len(sg.heads[2]))
	}
	// Every head fronts its own (level, label) and starts at the tail.
	for level := 0; level <= 2; level++ {
		for label, h := range sg.heads[level] {
			if h.Kind() != node.Head || h.TopLevel() != level || h.Vector() != uint32(label) {
				t.Fatalf("head (%d,%d) mislabeled", level, label)
			}
			if h.RawNext(level) != sg.Tail() {
				t.Fatalf("head (%d,%d) not pointing at tail", level, label)
			}
		}
	}
	// Head(vector) returns the top-level head of the vector's list.
	if sg.Head(0b10) != sg.heads[2][2] {
		t.Fatal("Head(0b10) wrong")
	}
}

// levelKeys walks the (level, label) list collecting physically linked,
// unmarked data keys.
func levelKeys(sg *SG[int64, int64], level int, label uint32) []int64 {
	var keys []int64
	for n := sg.heads[level][label].RawNext(level); n != nil && n.Kind() != node.Tail; n = n.RawNext(level) {
		if !n.RawMarked(0) {
			keys = append(keys, n.Key())
		}
	}
	return keys
}

// TestPartitioning reproduces Fig. 1's structure: with MaxLevel 2 and four
// vectors, each level-i list must contain exactly the keys whose inserting
// vector matches the list label on its low i bits, in sorted order.
func TestPartitioning(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2})
	vectors := []uint32{0b00, 0b01, 0b10, 0b11}
	byVector := map[uint32][]int64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 80; i++ {
		key := int64(i)
		v := vectors[rng.Intn(len(vectors))]
		insert(t, sg, key, v, 2)
		byVector[v] = append(byVector[v], key)
	}
	// Level 0: everything.
	if got := levelKeys(sg, 0, 0); len(got) != 80 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("level-0 list wrong: %v", got)
	}
	for level := 1; level <= 2; level++ {
		for label := uint32(0); label < 1<<uint(level); label++ {
			var want []int64
			for v, keys := range byVector {
				if membership.ListLabel(v, level) == label {
					want = append(want, keys...)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := levelKeys(sg, level, label)
			if len(got) != len(want) {
				t.Fatalf("list (%d,%b): %d keys want %d", level, label, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("list (%d,%b) mismatch at %d: %v vs %v", level, label, i, got, want)
				}
			}
		}
	}
}

// TestSearchFromArbitraryNode checks the defining skip graph property: a
// search can start from any shared node's top level.
func TestSearchFromArbitraryNode(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2})
	var nodes []*node.Node[int64, int64]
	for i := int64(0); i < 40; i++ {
		nodes = append(nodes, insert(t, sg, i*2, uint32(i)&3, 2))
	}
	for _, start := range nodes {
		// Searches examine strict successors of the start: callers always
		// provide a start strictly preceding the goal key (getStart skips
		// the key's own local entry).
		for target := start.Key() + 1; target < 80; target++ {
			found, ok := sg.RetireSearch(target, start, start.Vector(), nil)
			want := target%2 == 0
			if ok != want {
				t.Fatalf("search %d from %d: ok=%v want %v", target, start.Key(), ok, want)
			}
			if ok && found.Key() != target {
				t.Fatalf("search %d found %d", target, found.Key())
			}
		}
	}
}

// TestSparseLevelDistribution is Fig. 10's defining property: elements appear
// in level i of their skip list with expectation 1/2^i.
func TestSparseLevelDistribution(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 6, Sparse: true})
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	counts := make([]int, 7)
	for i := 0; i < n; i++ {
		lvl := sg.RandomTopLevel(rng)
		for l := 0; l <= lvl; l++ {
			counts[l]++
		}
	}
	for level := 1; level <= 4; level++ {
		got := float64(counts[level]) / float64(n)
		want := 1.0 / float64(int(1)<<uint(level))
		if got < want*0.85 || got > want*1.15 {
			t.Fatalf("level %d occupancy %.4f want ≈%.4f", level, got, want)
		}
	}
	// Non-sparse structures always use the full height.
	full := newSG(t, Config{MaxLevel: 6})
	for i := 0; i < 100; i++ {
		if full.RandomTopLevel(rng) != 6 {
			t.Fatal("non-sparse top level != MaxLevel")
		}
	}
}

// TestSparseListOccupancy checks the combined partitioning × sparsity claim:
// a level-i list of a sparse skip graph holds ≈ n/4^i elements (1/2^i from
// partitioning with uniformly spread vectors, 1/2^i from geometric heights).
func TestSparseListOccupancy(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2, Sparse: true})
	rng := rand.New(rand.NewSource(13))
	const n = 8000
	for i := 0; i < n; i++ {
		insert(t, sg, int64(i), uint32(rng.Intn(4)), sg.RandomTopLevel(rng))
	}
	for _, c := range []struct {
		level int
		label uint32
	}{{1, 0}, {1, 1}, {2, 0}, {2, 3}} {
		got := float64(len(levelKeys(sg, c.level, c.label))) / float64(n)
		want := 1.0 / float64(int(1)<<uint(2*c.level))
		if got < want*0.8 || got > want*1.2 {
			t.Fatalf("sparse list (%d,%b) occupancy %.4f want ≈%.4f", c.level, c.label, got, want)
		}
	}
}

// TestRelinkOptimization: marking a chain of nodes and inserting over it must
// physically remove the whole chain with the insertion CAS. The list is lazy,
// because lazy searches leave marked chains for inserting substitutions.
func TestRelinkOptimization(t *testing.T) {
	clock := int64(0)
	sg := newSG(t, Config{
		MaxLevel:         0,
		Lazy:             true,
		CommissionPeriod: 1000 * time.Nanosecond,
		Clock:            func() int64 { return clock },
	})
	insert(t, sg, 10, 0, 0)
	chain := []*node.Node[int64, int64]{
		insert(t, sg, 20, 0, 0),
		insert(t, sg, 30, 0, 0),
		insert(t, sg, 40, 0, 0),
	}
	insert(t, sg, 50, 0, 0)
	for _, n := range chain {
		if done, removed := sg.RemoveHelper(n, nil); !done || !removed {
			t.Fatalf("remove %d failed", n.Key())
		}
	}
	// Once the commission expires, Retire marks each removed node; the nodes
	// stay physically linked until an insert relinks across them.
	clock += 2000
	for _, n := range chain {
		if !sg.Retire(n, nil) {
			t.Fatalf("retire %d failed", n.Key())
		}
	}
	res := sg.NewSearchResult()
	if sg.LazyRelinkSearch(25, nil, 0, res, nil) {
		t.Fatal("25 present?")
	}
	if res.Preds[0].Key() != 10 || res.Succs[0].Key() != 50 {
		t.Fatalf("search bracketing wrong: %v..%v", res.Preds[0].Key(), res.Succs[0].Key())
	}
	if res.Middles[0] != chain[0] {
		t.Fatal("the search unlinked the marked chain itself")
	}
	n := sg.NewNode(25, 25, 0, node.Owner{}, 0)
	if !sg.LinkLevel0(res, n, nil) {
		t.Fatal("relink insert failed")
	}
	n.MarkInserted()
	// One CAS replaced the whole marked chain.
	got := levelKeys(sg, 0, 0)
	want := []int64{10, 25, 50}
	if len(got) != len(want) {
		t.Fatalf("bottom list after relink: %v", got)
	}
	// And physically: 10 → 25 → 50 directly.
	ten := sg.BottomHead().RawNext(0)
	if ten.Key() != 10 || ten.RawNext(0).Key() != 25 || ten.RawNext(0).RawNext(0).Key() != 50 {
		t.Fatal("marked chain not physically removed")
	}
}

func TestCleanupDuringSearch(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 0}) // non-lazy: searches clean up
	insert(t, sg, 10, 0, 0)
	doomed := insert(t, sg, 20, 0, 0)
	insert(t, sg, 30, 0, 0)
	if done, removed := sg.RemoveHelper(doomed, nil); !done || !removed {
		t.Fatal("remove failed")
	}
	// A plain search unlinks the marked node.
	if _, ok := sg.RetireSearch(30, nil, 0, nil); !ok {
		t.Fatal("30 missing")
	}
	if sg.BottomHead().RawNext(0).RawNext(0).Key() != 30 {
		t.Fatal("search did not clean up marked node")
	}
}

func TestLazyLifecycle(t *testing.T) {
	clock := int64(0)
	sg := newSG(t, Config{
		MaxLevel:         2,
		Lazy:             true,
		CommissionPeriod: 1000 * time.Nanosecond,
		Clock:            func() int64 { return clock },
	})
	res := sg.NewSearchResult()

	// Bottom-only insertion.
	if sg.LazyRelinkSearch(10, nil, 0, res, nil) {
		t.Fatal("10 present in empty structure")
	}
	n := sg.NewNode(10, 10, 0, node.Owner{}, 2)
	if !sg.LinkLevel0(res, n, nil) {
		t.Fatal("level-0 link failed")
	}
	if n.Inserted() {
		t.Fatal("node claims inserted before FinishInsert")
	}
	if len(levelKeys(sg, 1, 0)) != 0 {
		t.Fatal("lazy node reached level 1 early")
	}
	// Searches find it at level 0.
	if found, ok := sg.RetireSearch(10, nil, 0, nil); !ok || found != n {
		t.Fatal("lazy node invisible")
	}
	// Finish the insertion on demand.
	if !sg.FinishInsert(n, nil, nil, res, nil) {
		t.Fatal("FinishInsert failed")
	}
	if !n.Inserted() || len(levelKeys(sg, 1, 0)) != 1 || len(levelKeys(sg, 2, 0)) != 1 {
		t.Fatal("FinishInsert did not link all levels")
	}

	// Logical removal: invalid but physically present, reported absent.
	if done, removed := sg.RemoveHelper(n, nil); !done || !removed {
		t.Fatal("lazy remove failed")
	}
	if done, removed := sg.RemoveHelper(n, nil); !done || removed {
		t.Fatal("double remove succeeded")
	}
	if m, v := n.RawMarkValid(); m || v {
		t.Fatalf("state after removal: marked=%v valid=%v", m, v)
	}
	// retireSearch still finds the unmarked node; the caller's valid-bit
	// check is what linearizes the failed contains (case C-iii-b).
	if found, ok := sg.RetireSearch(10, nil, 0, nil); !ok || found != n {
		t.Fatal("invalid node should still be physically findable")
	} else if m, v := found.RawMarkValid(); m || v {
		t.Fatalf("caller-side presence check should fail: %v,%v", m, v)
	}

	// Revival before the commission period expires.
	if done, inserted := sg.InsertHelper(n, nil); !done || !inserted {
		t.Fatal("revival failed")
	}
	if found, ok := sg.RetireSearch(10, nil, 0, nil); !ok || found != n {
		t.Fatal("revived node invisible")
	}

	// Invalidate again and let the commission period expire: the next search
	// on behalf of an update retires (marks) the node.
	if done, removed := sg.RemoveHelper(n, nil); !done || !removed {
		t.Fatal("second removal failed")
	}
	clock = 5000
	if sg.LazyRelinkSearch(10, nil, 0, res, nil) {
		t.Fatal("found removed node")
	}
	if m, v := n.RawMarkValid(); !m || v {
		t.Fatalf("node not retired after commission: marked=%v valid=%v", m, v)
	}
	for level := 1; level <= 2; level++ {
		if !n.RawLoad(level).Marked {
			t.Fatalf("level %d not marked by retire", level)
		}
	}
	// Once marked, revival must fail and fresh insertion must succeed.
	if done, _ := sg.InsertHelper(n, nil); done {
		t.Fatal("revived a marked node")
	}
	n2 := sg.NewNode(10, 1010, 0, node.Owner{}, 2)
	if sg.LazyRelinkSearch(10, nil, 0, res, nil) {
		t.Fatal("search still finds marked node")
	}
	if !sg.LinkLevel0(res, n2, nil) {
		t.Fatal("fresh insert failed")
	}
	if !sg.FinishInsert(n2, nil, nil, res, nil) {
		t.Fatal("fresh FinishInsert failed")
	}
	// The relink of the fresh insert must have physically removed n at
	// level 0.
	for m := sg.BottomHead().RawNext(0); m != nil && m.Kind() != node.Tail; m = m.RawNext(0) {
		if m == n {
			t.Fatal("retired node still physically linked at level 0")
		}
	}
}

func TestCommissionPeriodRespected(t *testing.T) {
	clock := int64(0)
	sg := newSG(t, Config{
		MaxLevel:         1,
		Lazy:             true,
		CommissionPeriod: time.Hour,
		Clock:            func() int64 { return clock },
	})
	n := insert(t, sg, 10, 0, 1)
	if done, removed := sg.RemoveHelper(n, nil); !done || !removed {
		t.Fatal("remove failed")
	}
	clock = int64(time.Minute) // < commission
	res := sg.NewSearchResult()
	sg.LazyRelinkSearch(10, nil, 0, res, nil)
	if m, _ := n.RawMarkValid(); m {
		t.Fatal("node retired before its commission period expired")
	}
}

func TestFinishInsertAbortsWhenMarked(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 2})
	res := sg.NewSearchResult()
	if sg.LazyRelinkSearch(10, nil, 0, res, nil) {
		t.Fatal("present")
	}
	n := sg.NewNode(10, 10, 0, node.Owner{}, 2)
	if !sg.LinkLevel0(res, n, nil) {
		t.Fatal("link failed")
	}
	// Mark the node before finishing: FinishInsert must abort and flag the
	// node inserted so nobody retries it.
	if done, removed := sg.RemoveHelper(n, nil); !done || !removed {
		t.Fatal("remove failed")
	}
	if sg.FinishInsert(n, nil, nil, res, nil) {
		t.Fatal("FinishInsert succeeded on a marked node")
	}
}

func TestRetireIdempotent(t *testing.T) {
	clock := int64(0)
	sg := newSG(t, Config{
		MaxLevel:         1,
		Lazy:             true,
		CommissionPeriod: time.Nanosecond,
		Clock:            func() int64 { return clock },
	})
	n := insert(t, sg, 5, 0, 1)
	if sg.Retire(n, nil) {
		t.Fatal("retired a valid node")
	}
	if done, removed := sg.RemoveHelper(n, nil); !done || !removed {
		t.Fatal("remove failed")
	}
	if !sg.Retire(n, nil) {
		t.Fatal("retire of invalid node failed")
	}
	if sg.Retire(n, nil) {
		t.Fatal("double retire succeeded")
	}
}

// TestRetiredBehindSameKey checks that the state "a retired node behind a
// live node of its key" cannot arise at level 0. An insert's observed
// successor, a node of the same key, is retired between the insert's search
// and its link: LinkLevel0 must refuse to link in front of it, and the
// re-search every caller then runs skips it and links cleanly. Validate
// rejects the state when it is forced by hand.
func TestRetiredBehindSameKey(t *testing.T) {
	clock := int64(0)
	sg := newSG(t, Config{
		MaxLevel:         1,
		Lazy:             true,
		CommissionPeriod: time.Nanosecond,
		Clock:            func() int64 { return clock },
	})
	insert(t, sg, 10, 0, 1)
	old := insert(t, sg, 20, 0, 0)
	insert(t, sg, 30, 0, 1)
	if done, removed := sg.RemoveHelper(old, nil); !done || !removed {
		t.Fatal("remove failed")
	}
	// The insert's search stops at the invalid node, which is retired
	// before the insert links.
	res := sg.NewSearchResult()
	if !sg.LazyRelinkSearch(20, nil, 0, res, nil) || res.Succs[0] != old {
		t.Fatal("search did not stop at the invalid node")
	}
	clock += 10
	if !sg.Retire(old, nil) {
		t.Fatal("retire failed")
	}
	fresh := sg.NewNode(20, 21, 0, node.Owner{}, 0)
	if sg.LinkLevel0(res, fresh, nil) {
		t.Fatal("LinkLevel0 linked in front of a node holding its key")
	}
	if sg.LazyRelinkSearch(20, nil, 0, res, nil) || res.Succs[0] == old {
		t.Fatal("re-search stopped at the retired node")
	}
	if !sg.LinkLevel0(res, fresh, nil) {
		t.Fatal("link after the re-search failed")
	}
	fresh.MarkInserted()
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !sg.Unlinked(old, nil) {
		t.Fatal("the link's relink left the retired node reachable")
	}

	// Forced by hand (the retired node kept its frozen link to 30), the
	// refused state fails Validate.
	fresh.RawStore(0, old, false, true)
	if err := sg.Validate(); err == nil {
		t.Fatal("Validate accepted a retired node behind a live node of its key")
	}
}

func TestLenAndBottomKeys(t *testing.T) {
	sg := newSG(t, Config{MaxLevel: 1})
	for i := int64(5); i > 0; i-- {
		insert(t, sg, i, uint32(i)&1, 1)
	}
	if sg.Len() != 5 {
		t.Fatalf("Len = %d", sg.Len())
	}
	if !remove(t, sg, 3, 0) {
		t.Fatal("remove 3 failed")
	}
	keys := sg.BottomKeys()
	want := []int64{1, 2, 4, 5}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v want %v", keys, want)
		}
	}
	if remove(t, sg, 3, 0) {
		t.Fatal("double remove succeeded")
	}
}

func TestDefaultCommissionProportionalToThreads(t *testing.T) {
	// Proportional to T below the cap...
	if DefaultCommissionPeriod(8) != 8*DefaultCommissionPeriod(1) {
		t.Fatal("commission period not proportional to thread count")
	}
	// ...but capped: uncapped, 96 threads would defer every retirement
	// ~9.6 ms, accumulating marked-but-linked garbage far longer than any
	// revival window needs.
	if got := DefaultCommissionPeriod(96); got != DefaultCommissionCap {
		t.Fatalf("96-thread commission %v, want cap %v", got, DefaultCommissionCap)
	}
	if DefaultCommissionPeriod(1) != DefaultCommissionPerThread {
		t.Fatal("single-thread commission not the per-thread constant")
	}
}

// TestDefaultCommissionPeriodCapAndFloor: the cap binds from the first
// thread count whose product passes it, and no thread count yields a
// non-positive period.
func TestDefaultCommissionPeriodCapAndFloor(t *testing.T) {
	threadsAtCap := int(DefaultCommissionCap / DefaultCommissionPerThread)
	if got := DefaultCommissionPeriod(threadsAtCap + 1); got != DefaultCommissionCap {
		t.Fatalf("%d-thread commission %v, want cap %v", threadsAtCap+1, got, DefaultCommissionCap)
	}
	if got := DefaultCommissionPeriod(threadsAtCap - 1); got != time.Duration(threadsAtCap-1)*DefaultCommissionPerThread {
		t.Fatalf("%d-thread commission %v, want uncapped", threadsAtCap-1, got)
	}
	if DefaultCommissionPeriod(0) != DefaultCommissionPerThread {
		t.Fatal("zero threads did not count as one")
	}
	if DefaultCommissionPeriod(-3) != DefaultCommissionPerThread {
		t.Fatal("a negative thread count did not count as one")
	}
}
