package local

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"layeredsg/internal/node"
)

var testArena = node.NewArena[int64, int64](1, 1)

func mkNode(key int64) *node.Node[int64, int64] {
	return testArena.NewData(key, key, 0, 0, node.Owner{}, uint64(key), 0)
}

// pool holds distinct nodes that tests store under many keys: the structure
// never reads a node, only keeps it, so a Ref check needs no node per key.
var pool = func() []*node.Node[int64, int64] {
	p := make([]*node.Node[int64, int64], 256)
	for i := range p {
		p[i] = mkNode(int64(i) + 1)
	}
	return p
}()

// model is a sorted-slice reference for a Structure.
type model struct {
	keys []int64
	refs map[int64]*node.Node[int64, int64]
}

func newModel() *model { return &model{refs: map[int64]*node.Node[int64, int64]{}} }

func (m *model) put(k int64, n *node.Node[int64, int64]) {
	if i, found := slices.BinarySearch(m.keys, k); !found {
		m.keys = slices.Insert(m.keys, i, k)
	}
	m.refs[k] = n
}

func (m *model) erase(k int64) {
	if i, found := slices.BinarySearch(m.keys, k); found {
		m.keys = slices.Delete(m.keys, i, i+1)
		delete(m.refs, k)
	}
}

// below returns the greatest key strictly below k.
func (m *model) below(k int64) (int64, bool) {
	i, _ := slices.BinarySearch(m.keys, k)
	if i == 0 {
		return 0, false
	}
	return m.keys[i-1], true
}

// checkIter reports whether it stands at the model's greatest entry below
// key, or is invalid when the model has none.
func (m *model) checkIter(it Iterator[int64, int64], key int64) bool {
	want, ok := m.below(key)
	if it.Valid() != ok {
		return false
	}
	return !ok || it.Key() == want && it.Value().N == m.refs[want] && it.Value().ID == m.refs[want].ID()
}

// checkBelow compares Below(k) with the model.
func (m *model) checkBelow(t testing.TB, s *Structure[int64, int64], k int64) {
	t.Helper()
	it, own, ok := s.Below(k)
	if !m.checkIter(it, k) {
		t.Fatalf("Below(%d) predecessor = %v, want model's %v", k, iterKey(it), m.keys)
	}
	if n, present := m.refs[k]; ok != present || present && own.N != n {
		t.Fatalf("Below(%d) own = %v, want %v", k, ok, present)
	}
}

func iterKey(it Iterator[int64, int64]) any {
	if it.Valid() {
		return it.Key()
	}
	return "invalid"
}

// checkInvariants validates the B+tree: every leaf at one depth, keys
// strictly increasing within the bounds their separators set, inner
// separators increasing, no empty node but the root leaf, a root inner node
// with at least two children, the leaf chain linked both ways in key order,
// and TreeLen equal to the entry count.
func checkInvariants(t testing.TB, s *Structure[int64, int64]) {
	t.Helper()
	type bound struct {
		v  int64
		ok bool
	}
	var leaves []*leaf[int64, int64]
	depth := -1
	var walk func(c child[int64, int64], d int, lo, hi bound)
	walk = func(c child[int64, int64], d int, lo, hi bound) {
		if (c.lf == nil) == (c.in == nil) {
			t.Fatalf("child holds %v leaf, %v inner", c.lf != nil, c.in != nil)
		}
		if lf := c.lf; lf != nil {
			if depth < 0 {
				depth = d
			} else if d != depth {
				t.Fatalf("leaf at depth %d, another at %d", d, depth)
			}
			if lf.n == 0 && c != s.root {
				t.Fatal("empty leaf below the root")
			}
			for i := 0; i < lf.n; i++ {
				k := lf.keys[i]
				if lo.ok && k < lo.v || hi.ok && k >= hi.v || i > 0 && k <= lf.keys[i-1] {
					t.Fatalf("leaf key %d out of order or outside [%v, %v)", k, lo, hi)
				}
			}
			leaves = append(leaves, lf)
			return
		}
		in := c.in
		if in.n == 0 || c == s.root && in.n < 2 {
			t.Fatalf("inner node with %d children (root %v)", in.n, c == s.root)
		}
		if lo.ok {
			// keys[0] moves to a left sibling as a separator on a merge, so
			// it must bound the node as its parent's separator does.
			if in.keys[0] < lo.v {
				t.Fatalf("inner keys[0] %d below its separator %d", in.keys[0], lo.v)
			}
			lo = bound{in.keys[0], true}
		}
		for i := 0; i < in.n; i++ {
			clo, chi := lo, hi
			if i > 0 {
				clo = bound{in.keys[i], true}
				if lo.ok && in.keys[i] <= lo.v || i > 1 && in.keys[i] <= in.keys[i-1] {
					t.Fatalf("separator %d out of order", in.keys[i])
				}
			}
			if i+1 < in.n {
				chi = bound{in.keys[i+1], true}
			}
			walk(in.items[i], d+1, clo, chi)
		}
	}
	walk(s.root, 0, bound{}, bound{})
	n := 0
	for i, lf := range leaves {
		n += lf.n
		if i == 0 && lf.prev != nil || i > 0 && lf.prev != leaves[i-1] {
			t.Fatalf("leaf %d: prev link broken", i)
		}
		if i+1 < len(leaves) && lf.next != leaves[i+1] || i+1 == len(leaves) && lf.next != nil {
			t.Fatalf("leaf %d: next link broken", i)
		}
	}
	if n != s.TreeLen() {
		t.Fatalf("leaves hold %d entries, TreeLen %d", n, s.TreeLen())
	}
}

// leafCount walks the leaf chain.
func leafCount(s *Structure[int64, int64]) int {
	c := s.root
	for c.lf == nil {
		c = c.in.items[0]
	}
	n := 0
	for lf := c.lf; lf != nil; lf = lf.next {
		n++
	}
	return n
}

func TestEmpty(t *testing.T) {
	s := New[int64, int64]()
	if s.TreeLen() != 0 {
		t.Fatal("empty TreeLen != 0")
	}
	if it, _, ok := s.Below(5); it.Valid() || ok {
		t.Fatal("Below on empty structure found an entry")
	}
	s.Erase(5)
	s.Ascend(func(int64, Ref[int64, int64]) bool {
		t.Fatal("Ascend visited an entry of an empty structure")
		return false
	})
	if (Iterator[int64, int64]{}).Valid() {
		t.Fatal("zero Iterator valid")
	}
	checkInvariants(t, s)
}

func TestPutEraseBothViews(t *testing.T) {
	s := New[int64, int64]()
	n := mkNode(10)
	s.Put(10, n)
	if _, own, ok := s.Below(10); !ok || own.N != n || own.ID != n.ID() {
		t.Fatal("own entry missing after Put")
	}
	if it, _, _ := s.Below(11); !it.Valid() || it.Value().N != n {
		t.Fatal("tree miss after Put")
	}
	if s.TreeLen() != 1 {
		t.Fatal("length wrong")
	}
	s.Erase(10)
	if _, _, ok := s.Below(10); ok {
		t.Fatal("own entry after Erase")
	}
	if it, _, _ := s.Below(11); it.Valid() {
		t.Fatal("tree hit after Erase")
	}
}

// TestPutReplaceErase: Put of a present key replaces its Ref without adding
// an entry, and Erase drops exactly the erased keys, across many leaves.
func TestPutReplaceErase(t *testing.T) {
	s := New[int64, int64]()
	for i := int64(0); i < 1000; i++ {
		s.Put(i, pool[i%256])
	}
	s.Put(500, pool[7])
	if _, own, ok := s.Below(500); !ok || own.N != pool[7] || own.ID != pool[7].ID() {
		t.Fatal("Put of a present key did not replace its Ref")
	}
	if s.TreeLen() != 1000 {
		t.Fatalf("TreeLen = %d after replace, want 1000", s.TreeLen())
	}
	for i := int64(0); i < 1000; i += 2 {
		s.Erase(i)
	}
	s.Erase(-1)
	if s.TreeLen() != 500 {
		t.Fatalf("TreeLen = %d want 500", s.TreeLen())
	}
	for i := int64(0); i < 1000; i++ {
		if _, _, ok := s.Below(i); ok != (i%2 == 1) {
			t.Fatalf("Below(%d) own present=%v", i, ok)
		}
	}
	checkInvariants(t, s)
}

func TestBelowTable(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range []int64{10, 20, 30, 40} {
		s.Put(k, pool[k])
	}
	cases := []struct {
		key, below int64
		belowOK    bool
		own        bool
	}{
		{5, 0, false, false},
		{10, 0, false, true},
		{15, 10, true, false},
		{40, 30, true, true},
		{45, 40, true, false},
	}
	for _, c := range cases {
		it, own, ok := s.Below(c.key)
		if it.Valid() != c.belowOK || c.belowOK && (it.Key() != c.below || it.Value().N != pool[c.below]) {
			t.Fatalf("Below(%d) = %v, want %v/%v", c.key, iterKey(it), c.belowOK, c.below)
		}
		if ok != c.own || ok && own.N != pool[c.key] {
			t.Fatalf("Below(%d) own = %v, want %v", c.key, ok, c.own)
		}
	}
}

func TestFloorAndBackwardTraversal(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range []int64{10, 20, 30} {
		s.Put(k, mkNode(k))
	}
	it, _, ok := s.Below(25)
	if !it.Valid() || it.Key() != 20 || ok {
		t.Fatalf("Below(25) = %v, own %v", it.Valid(), ok)
	}
	// The key's own entry is reported apart, never as the predecessor.
	if it, own, ok := s.Below(20); !ok || own.N.Key() != 20 || !it.Valid() || it.Key() != 10 {
		t.Fatalf("Below(20) = %v, own %v", it.Valid(), ok)
	}
	prev := it.Prev()
	if !prev.Valid() || prev.Key() != 10 {
		t.Fatal("Prev wrong")
	}
	if prev.Prev().Valid() {
		t.Fatal("Prev past minimum valid")
	}
	if it, _, _ := s.Below(10); it.Valid() {
		t.Fatal("Below the minimum valid")
	}
}

// TestIterationOrder walks every entry forward with Ascend and backward with
// Prev (the getPrev traversal the paper relies on), across leaf boundaries.
func TestIterationOrder(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range rand.New(rand.NewSource(1)).Perm(500) {
		s.Put(int64(k), pool[k%256])
	}
	i := int64(0)
	s.Ascend(func(k int64, r Ref[int64, int64]) bool {
		if k != i || r.N != pool[k%256] {
			t.Fatalf("forward order: got %d want %d", k, i)
		}
		i++
		return true
	})
	if i != 500 {
		t.Fatalf("forward visited %d", i)
	}
	i = 499
	for it, _, _ := s.Below(500); it.Valid(); it = it.Prev() {
		if it.Key() != i || it.Value().N != pool[i%256] {
			t.Fatalf("backward order: got %d want %d", it.Key(), i)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("backward stopped at %d", i)
	}
}

func TestAscend(t *testing.T) {
	s := New[int64, int64]()
	for _, k := range []int64{3, 1, 2} {
		s.Put(k, mkNode(k))
	}
	var got []int64
	s.Ascend(func(k int64, _ Ref[int64, int64]) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Ascend order: %v", got)
	}
}

// TestAscendEarlyStop checks that Ascend stops when fn returns false, also
// past a leaf boundary.
func TestAscendEarlyStop(t *testing.T) {
	s := New[int64, int64]()
	for k := int64(1); k < 200; k++ {
		s.Put(k, pool[k%256])
	}
	var got []int64
	s.Ascend(func(k int64, _ Ref[int64, int64]) bool {
		got = append(got, k)
		return k < 100
	})
	if len(got) != 100 || got[99] != 100 {
		t.Fatalf("Ascend early stop: %d entries, last %d", len(got), got[len(got)-1])
	}
}

// TestIteratorSurvivesOtherDeletes is the property getStart depends on:
// erasing other keys, its structural neighbours included, leaves a held
// iterator usable, and Prev from it reaches the remaining predecessor.
func TestIteratorSurvivesOtherDeletes(t *testing.T) {
	s := New[int64, int64]()
	for i := int64(0); i < 200; i++ {
		s.Put(i, pool[i])
	}
	it, _, _ := s.Below(101)
	if !it.Valid() || it.Key() != 100 {
		t.Fatal("Below(101) not at 100")
	}
	for _, k := range []int64{99, 101, 98, 102, 0, 199, 150, 50, 103, 97} {
		s.Erase(k)
	}
	if !it.Valid() || it.Key() != 100 || it.Value().N != pool[100] {
		t.Fatalf("iterator damaged: valid=%v", it.Valid())
	}
	if prev := it.Prev(); !prev.Valid() || prev.Key() != 96 || prev.Value().N != pool[96] {
		t.Fatalf("Prev = %v want 96", iterKey(prev))
	}
	checkInvariants(t, s)
}

// TestPrevAfterOwnEraseAndRebalance: Prev from an iterator whose own entry
// was erased, or whose leaf was split, merged or evened out since, returns
// the greatest entry below its key that is present at the call.
func TestPrevAfterOwnEraseAndRebalance(t *testing.T) {
	s := New[int64, int64]()
	for i := int64(0); i < 4*fanout; i++ {
		s.Put(2*i, pool[i%256])
	}
	held := make(map[int64]Iterator[int64, int64])
	for k := int64(1); k < 8*fanout; k += 8 {
		it, _, _ := s.Below(k)
		held[it.Key()] = it
	}
	m := newModel()
	s.Ascend(func(k int64, r Ref[int64, int64]) bool {
		m.put(k, r.N)
		return true
	})
	check := func(what string) {
		t.Helper()
		checkInvariants(t, s)
		for k, it := range held {
			if it.Key() != k {
				t.Fatalf("%s: held iterator's key changed from %d to %d", what, k, it.Key())
			}
			if !m.checkIter(it.Prev(), k) {
				t.Fatalf("%s: Prev from held %d = %v", what, k, iterKey(it.Prev()))
			}
		}
	}
	for k := range held { // erase every held iterator's own entry
		s.Erase(k)
		m.erase(k)
	}
	check("own entries erased")
	for k := int64(1); k < 8*fanout; k += 2 { // splits
		s.Put(k, pool[k%256])
		m.put(k, pool[k%256])
	}
	check("splits")
	for k := int64(0); k < 8*fanout; k++ { // merges and borrows
		if k%16 != 3 {
			s.Erase(k)
			m.erase(k)
		}
	}
	check("merges")
}

// TestQuickAgainstModel property-tests random op sequences against the
// sorted-slice model, validating the tree's invariants at the end.
func TestQuickAgainstModel(t *testing.T) {
	f := func(ops []int16) bool {
		s := New[int64, int64]()
		m := newModel()
		for i, raw := range ops {
			key := int64(raw) % 256
			switch i % 3 {
			case 0:
				s.Put(key, pool[i%256])
				m.put(key, pool[i%256])
			case 1:
				s.Erase(key)
				m.erase(key)
			default:
				it, own, ok := s.Below(key)
				if n, present := m.refs[key]; ok != present || present && own.N != n || !m.checkIter(it, key) {
					return false
				}
			}
		}
		if s.TreeLen() != len(m.keys) {
			return false
		}
		for probe := int64(-260); probe <= 260; probe += 7 {
			if it, _, _ := s.Below(probe); !m.checkIter(it, probe) {
				return false
			}
		}
		checkInvariants(t, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsUnderChurn(t *testing.T) {
	s := New[int64, int64]()
	m := newModel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40000; i++ {
		k := rng.Int63n(3000)
		if rng.Intn(2) == 0 {
			s.Put(k, pool[i%256])
			m.put(k, pool[i%256])
		} else {
			s.Erase(k)
			m.erase(k)
		}
		if i%2000 == 0 {
			checkInvariants(t, s)
			m.checkBelow(t, s, rng.Int63n(3100))
		}
	}
	checkInvariants(t, s)
	if s.TreeLen() != len(m.keys) {
		t.Fatalf("TreeLen %d, model %d", s.TreeLen(), len(m.keys))
	}
}

// TestMonotoneInsertsFillLeaves: keys inserted in increasing order, as each
// durable client's keys and a load's sorted shards arrive, leave every leaf
// but the last full.
func TestMonotoneInsertsFillLeaves(t *testing.T) {
	const n = 100*fanout + 5
	s := New[int64, int64]()
	for k := int64(0); k < n; k++ {
		s.Put(k, pool[k%256])
	}
	checkInvariants(t, s)
	if got, want := leafCount(s), (n+fanout-1)/fanout; got != want {
		t.Fatalf("%d leaves for %d monotone inserts, want %d", got, n, want)
	}
}

// TestMemoryFollowsEntries erases 90% of 2^17 entries in random and in
// strided order: the leaf count must follow the entry count down.
func TestMemoryFollowsEntries(t *testing.T) {
	const n = 1 << 17
	orders := map[string]func(rng *rand.Rand) []int64{
		"random": func(rng *rand.Rand) []int64 {
			var ks []int64
			for _, k := range rng.Perm(n) {
				if k%10 != 0 {
					ks = append(ks, int64(k))
				}
			}
			return ks
		},
		"strided": func(*rand.Rand) []int64 {
			var ks []int64
			for off := int64(1); off < 10; off++ {
				for k := off; k < n; k += 10 {
					ks = append(ks, k)
				}
			}
			return ks
		},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			s := New[int64, int64]()
			for _, k := range rng.Perm(n) {
				s.Put(int64(k), pool[k%256])
			}
			erase := order(rng)
			for i, k := range erase {
				s.Erase(k)
				if i%(n/16) == 0 || i == len(erase)-1 {
					if leaves, bound := leafCount(s), 4*s.TreeLen()/fanout+2; leaves > bound {
						t.Fatalf("after %d erases: %d leaves for %d entries, bound %d", i+1, leaves, s.TreeLen(), bound)
					}
				}
			}
			if s.TreeLen() != n/10+1 {
				t.Fatalf("TreeLen %d want %d", s.TreeLen(), n/10+1)
			}
			checkInvariants(t, s)
		})
	}
}

// FuzzLocalStructure runs Put, Erase and Below against the sorted-slice
// model, holding iterators across erases, splits and merges and checking
// Prev from each. Each op is three bytes: op, key, argument; the run ops
// put or erase up to 256 keys at once so short inputs reach every
// rebalancing path. Only the first maxOps ops run, which bounds each input's
// time.
func FuzzLocalStructure(f *testing.F) {
	const maxOps = 128
	f.Add([]byte{3, 0, 255, 2, 200, 0, 2, 100, 1, 4, 0, 1, 5, 0, 0})
	f.Add([]byte{3, 0, 255, 3, 128, 255, 2, 60, 2, 4, 10, 3, 4, 11, 2, 5, 0, 0, 1, 60, 0})
	f.Add([]byte{3, 0, 200, 2, 150, 3, 2, 50, 0, 4, 0, 0, 3, 10, 90, 5, 0, 0, 4, 1, 1, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*maxOps)]
		s := New[int64, int64]()
		m := newModel()
		var held [4]Iterator[int64, int64]
		var heldKey [4]int64
		var heldRef [4]Ref[int64, int64]
		put := func(k int64, n *node.Node[int64, int64]) {
			s.Put(k, n)
			m.put(k, n)
		}
		erase := func(k int64) {
			s.Erase(k)
			m.erase(k)
		}
		for len(data) >= 3 {
			op, key, arg := data[0]%6, int64(data[1])*2, data[2]
			data = data[3:]
			switch op {
			case 0:
				put(key, pool[arg])
			case 1:
				erase(key)
			case 2:
				m.checkBelow(t, s, key)
				if it, _, _ := s.Below(key); it.Valid() {
					h := arg % 4
					held[h], heldKey[h], heldRef[h] = it, it.Key(), it.Value()
				}
			case 3: // put a run of odd keys, up to 256
				for k := key + 1; k < key+1+2*int64(arg); k += 2 {
					put(k, pool[k%256])
				}
				checkInvariants(t, s)
			case 4: // erase every stride-th key in [key, key+512)
				for k := key; k < key+512; k += int64(arg%7) + 1 {
					erase(k)
				}
				checkInvariants(t, s)
			case 5: // walk back three steps from each held iterator
				for h, it := range held {
					if !it.Valid() {
						continue
					}
					k := heldKey[h]
					for step := 0; step < 3 && it.Valid(); step++ {
						p := it.Prev()
						if !m.checkIter(p, k) {
							t.Fatalf("Prev below %d = %v, model %v", k, iterKey(p), m.keys)
						}
						it, k = p, p.Key()
					}
				}
			}
			for h, it := range held {
				if it.Valid() && (it.Key() != heldKey[h] || it.Value() != heldRef[h]) {
					t.Fatalf("held iterator %d changed from %d to %d", h, heldKey[h], it.Key())
				}
				if it.Valid() && !m.checkIter(it.Prev(), heldKey[h]) {
					t.Fatalf("Prev below held %d = %v", heldKey[h], iterKey(it.Prev()))
				}
			}
		}
		checkInvariants(t, s)
		for probe := int64(-1); probe < 1024; probe += 13 {
			m.checkBelow(t, s, probe)
		}
	})
}

var belowSink int

// BenchmarkLocalBelow times the local-structure jump in the per-stripe shape
// of perfbench's point workload: 8 structures of 65,536 random keys each,
// probed with uniform random keys in turn.
func BenchmarkLocalBelow(b *testing.B) {
	const structures, keys, nprobes = 8, 1 << 16, 1 << 16
	const space = int64(1) << 40
	rng := rand.New(rand.NewSource(1))
	n := mkNode(1) // Below never reads the node
	var ss [structures]*Structure[int64, int64]
	for i := range ss {
		ss[i] = New[int64, int64]()
		for ss[i].TreeLen() < keys {
			ss[i].Put(rng.Int63n(space), n)
		}
	}
	probes := make([]int64, nprobes)
	for i := range probes {
		probes[i] = rng.Int63n(space)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if it, _, _ := ss[i%structures].Below(probes[i%nprobes]); it.Valid() {
			belowSink++
		}
	}
}
