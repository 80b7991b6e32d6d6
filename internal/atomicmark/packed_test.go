package atomicmark

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestPackedZeroValue(t *testing.T) {
	var r PackedRef
	snap := r.Load()
	if snap.Ref != 0 || snap.Marked || snap.Valid {
		t.Fatalf("zero value = %+v, want 0/unmarked/invalid", snap)
	}
}

// TestZeroValue checks that every accessor reads a zero PackedRef as the nil
// reference, unmarked and invalid.
func TestZeroValue(t *testing.T) {
	var r PackedRef
	if r.Ref() != 0 || r.Index() != 0 {
		t.Fatalf("zero Ref() = %#x, Index() = %d, want 0", r.Ref(), r.Index())
	}
	if r.Marked() {
		t.Fatal("zero Marked()")
	}
	if r.Valid() {
		t.Fatal("zero Valid()")
	}
	if m, v := r.MarkValid(); m || v {
		t.Fatalf("zero MarkValid() = %v,%v", m, v)
	}
}

func TestPackWordRoundTrip(t *testing.T) {
	f := func(index, gen uint32, marked, valid bool) bool {
		ref := MakeRef(index, gen)
		got := UnpackWord(PackWord(ref, marked, valid))
		return got == PackedSnapshot{Ref: ref, Marked: marked, Valid: valid} &&
			got.Index() == index && got.Gen() == gen&PackedGenMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackWordLayout(t *testing.T) {
	// The layout is load-bearing for anyone reading raw words out of dumps:
	// bit 0 marked, bit 1 valid, index from bit 2, generation from bit 34.
	if w := PackWord(MakeRef(1, 0), false, false); w != 1<<2 {
		t.Fatalf("index bit position: %#x", w)
	}
	if w := PackWord(MakeRef(0, 1), false, false); w != 1<<34 {
		t.Fatalf("generation bit position: %#x", w)
	}
	if w := PackWord(0, true, false); w != 1 {
		t.Fatalf("marked bit position: %#x", w)
	}
	if w := PackWord(0, false, true); w != 2 {
		t.Fatalf("valid bit position: %#x", w)
	}
	if w := PackWord(MakeRef(^uint32(0), 0), true, true); w != (1<<32-1)<<2|3 {
		t.Fatalf("max index: %#x", w)
	}
	if w := PackWord(MakeRef(^uint32(0), ^uint32(0)), true, true); w != ^uint64(0) {
		t.Fatalf("max ref must saturate the word: %#x", w)
	}
}

func TestMakeRefMasksGeneration(t *testing.T) {
	// Generations wrap at PackedGenBits; the index half is never disturbed.
	ref := MakeRef(42, PackedGenMask+3)
	if RefIndex(ref) != 42 || RefGen(ref) != 2 {
		t.Fatalf("MakeRef(42, mask+3) = index %d gen %d, want 42 gen 2", RefIndex(ref), RefGen(ref))
	}
}

func TestPackedCASNext(t *testing.T) {
	var r PackedRef
	r.Init(1, false, true)
	if !r.CASNext(1, 2) {
		t.Fatal("CASNext with correct expectation failed")
	}
	if r.CASNext(1, 3) {
		t.Fatal("CASNext with stale expectation succeeded")
	}
	if got := r.Load(); got.Index() != 2 || got.Marked || !got.Valid {
		t.Fatalf("state after CASNext = %+v", got)
	}
	// A marked reference is frozen.
	if !r.CASMark(false, true) {
		t.Fatal("CASMark failed")
	}
	if r.CASNext(2, 4) {
		t.Fatal("CASNext mutated a marked reference")
	}
}

// TestCASNext checks that a successor swing needs the exact current
// reference, and that a failed swing on a marked reference leaves the whole
// word as it was.
func TestCASNext(t *testing.T) {
	var r PackedRef
	a, b, c := MakeRef(1, 0), MakeRef(2, 1), MakeRef(3, 2)
	r.Init(a, false, true)

	if !r.CASNext(a, b) {
		t.Fatal("CASNext a→b failed")
	}
	if r.Ref() != b {
		t.Fatalf("Ref() = %#x, want %#x", r.Ref(), b)
	}
	if r.CASNext(a, c) {
		t.Fatal("CASNext with stale expected succeeded")
	}
	// Marked references are immutable.
	if !r.CASMark(false, true) {
		t.Fatal("CASMark failed")
	}
	if r.CASNext(b, c) {
		t.Fatal("CASNext on marked reference succeeded")
	}
	if got := r.Load(); got.Ref != b || !got.Marked || !got.Valid {
		t.Fatalf("marked reference changed: %+v", got)
	}
}

// TestPackedCASNextGenMismatch is the ABA guard in miniature: an expectation
// holding yesterday's generation of the same index must fail even though the
// index half matches exactly.
func TestPackedCASNextGenMismatch(t *testing.T) {
	var r PackedRef
	r.Init(MakeRef(5, 2), false, true)
	if r.CASNext(MakeRef(5, 1), MakeRef(9, 0)) {
		t.Fatal("CASNext succeeded against a stale generation")
	}
	if !r.CASNext(MakeRef(5, 2), MakeRef(9, 4)) {
		t.Fatal("CASNext with the live generation failed")
	}
	if got := r.Load(); got.Index() != 9 || got.Gen() != 4 {
		t.Fatalf("state after CASNext = index %d gen %d", got.Index(), got.Gen())
	}
}

func TestPackedCASMarkValid(t *testing.T) {
	var r PackedRef
	r.Init(MakeRef(7, 3), false, true)
	// The lazy remove/revive/retire sequence.
	if !r.CASMarkValid(false, true, false, false) {
		t.Fatal("invalidate failed")
	}
	if !r.CASMarkValid(false, false, false, true) {
		t.Fatal("revive failed")
	}
	if !r.CASMarkValid(false, true, false, false) {
		t.Fatal("re-invalidate failed")
	}
	if !r.CASMarkValid(false, false, true, false) {
		t.Fatal("retire failed")
	}
	if r.CASMarkValid(false, false, false, true) {
		t.Fatal("revive of a marked reference succeeded")
	}
	if got := r.Load(); got.Index() != 7 || got.Gen() != 3 || !got.Marked || got.Valid {
		t.Fatalf("final state = %+v", got)
	}
}

// TestCASMarkValid starts from an unmarked, invalid word (a node removed
// lazily and waiting for revival) and checks that the combined CAS matches
// on both flags before it reaches revival and retirement.
func TestCASMarkValid(t *testing.T) {
	var r PackedRef
	a := MakeRef(1, 6)
	r.Init(a, false, false)
	if r.CASMarkValid(false, true, false, false) {
		t.Fatal("CASMarkValid with wrong valid expectation succeeded")
	}
	if r.CASMarkValid(true, false, false, true) {
		t.Fatal("CASMarkValid with wrong marked expectation succeeded")
	}
	if !r.CASMarkValid(false, false, false, true) {
		t.Fatal("revival CAS failed")
	}
	if m, v := r.MarkValid(); m || !v {
		t.Fatalf("after revival: %v,%v", m, v)
	}
	// Retire: (false,*)→(true,*) only via exact expectation.
	if !r.CASMarkValid(false, true, false, false) {
		t.Fatal("invalidate failed")
	}
	if !r.CASMarkValid(false, false, true, false) {
		t.Fatal("retire failed")
	}
	if got := r.Load(); !got.Marked || got.Valid || got.Ref != a {
		t.Fatalf("after retire: %+v", got)
	}
}

// TestPackedMarkWins races marking against a successor swing: the two never
// resurrect a successor past a mark.
func TestPackedMarkWins(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		var r PackedRef
		r.Init(1, false, true)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.CASMark(false, true)
		}()
		go func() {
			defer wg.Done()
			r.CASNext(1, 2)
		}()
		wg.Wait()
		got := r.Load()
		if !got.Marked {
			t.Fatal("mark lost")
		}
		if got.Index() != 1 && got.Index() != 2 {
			t.Fatalf("index = %d", got.Index())
		}
	}
}

// TestInitAndLoad checks that Init installs exactly the requested triple and
// that every reader agrees on it.
func TestInitAndLoad(t *testing.T) {
	var r PackedRef
	ref := MakeRef(11, 5)
	r.Init(ref, false, true)
	if got := r.Load(); got.Ref != ref || got.Marked || !got.Valid {
		t.Fatalf("Load = %+v", got)
	}
	if r.Ref() != ref || r.Index() != 11 || r.Marked() || !r.Valid() {
		t.Fatalf("accessors disagree: ref %#x index %d marked %v valid %v", r.Ref(), r.Index(), r.Marked(), r.Valid())
	}
	if m, v := r.MarkValid(); m || !v {
		t.Fatalf("MarkValid = %v,%v", m, v)
	}
}

func TestCASMarkPreservesPointerAndValid(t *testing.T) {
	var r PackedRef
	ref := MakeRef(4, 9)
	r.Init(ref, false, true)
	if !r.CASMark(false, true) {
		t.Fatal("CASMark false→true failed")
	}
	if got := r.Load(); got.Ref != ref || !got.Marked || !got.Valid {
		t.Fatalf("after mark: %+v", got)
	}
	if r.CASMark(false, true) {
		t.Fatal("CASMark with wrong expectation succeeded")
	}
}

// TestConcurrentMarkOnce checks that among many concurrent CASMark attempts
// exactly one succeeds — the linearization guarantee every protocol step
// relies on.
func TestConcurrentMarkOnce(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		var r PackedRef
		r.Init(MakeRef(1, 0), false, true)
		const n = 8
		results := make([]bool, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = r.CASMark(false, true)
			}(i)
		}
		wg.Wait()
		wins := 0
		for _, ok := range results {
			if ok {
				wins++
			}
		}
		if wins != 1 {
			t.Fatalf("iter %d: %d winners, want exactly 1", iter, wins)
		}
	}
}

// TestConcurrentReviveRetireExclusive checks that revival (invalid→valid)
// and retirement (unmarked-invalid→marked-invalid) of the same reference are
// mutually exclusive: exactly one of the two racing transitions wins.
func TestConcurrentReviveRetireExclusive(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		var r PackedRef
		r.Init(MakeRef(1, 0), false, false)
		var revived, retired bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			revived = r.CASMarkValid(false, false, false, true)
		}()
		go func() {
			defer wg.Done()
			retired = r.CASMarkValid(false, false, true, false)
		}()
		wg.Wait()
		if revived == retired {
			t.Fatalf("iter %d: revived=%v retired=%v, want exactly one", iter, revived, retired)
		}
	}
}

// TestQuickTransitions property-tests that arbitrary sequences of CAS
// operations issued with the current state as expectation always leave the
// word in the state the last winner installed, and that CASNext never
// succeeds on a marked reference.
func TestQuickTransitions(t *testing.T) {
	refs := []uint64{MakeRef(1, 0), MakeRef(2, 7), MakeRef(3, PackedGenMask)}
	f := func(ops []uint8) bool {
		var r PackedRef
		r.Init(refs[0], false, true)
		cur := PackedSnapshot{Ref: refs[0], Valid: true}
		for _, op := range ops {
			switch op % 3 {
			case 0:
				next := refs[int(op/4)%len(refs)]
				if r.CASNext(cur.Ref, next) {
					if cur.Marked {
						return false
					}
					cur.Ref = next
				}
			case 1:
				if r.CASMark(cur.Marked, !cur.Marked) {
					cur.Marked = !cur.Marked
				}
			case 2:
				if r.CASMarkValid(cur.Marked, cur.Valid, !cur.Marked, !cur.Valid) {
					cur.Marked = !cur.Marked
					cur.Valid = !cur.Valid
				}
			}
			if r.Load() != cur {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// refModel is the sequential specification of a PackedRef: a plain
// (ref, marked, valid) triple whose CAS methods spell out each operation's
// contract one comparison at a time.
type refModel struct {
	ref           uint64
	marked, valid bool
}

func (m *refModel) casNext(exp, next uint64) bool {
	if m.marked || m.ref != exp {
		return false
	}
	m.ref = next
	return true
}

func (m *refModel) casMark(exp, next bool) bool {
	if m.marked != exp {
		return false
	}
	m.marked = next
	return true
}

func (m *refModel) casMarkValid(expM, expV, newM, newV bool) bool {
	if m.marked != expM || m.valid != expV {
		return false
	}
	m.marked, m.valid = newM, newV
	return true
}

// TestPackedVsModelDifferential drives a randomized operation sequence
// through a PackedRef and the sequential refModel and asserts result-for-
// result and state-for-state equality after every step. Successors are drawn
// from a small pool of slot references (index i, generation i%3); the
// varying generations keep the tag honest in the word-compare paths.
func TestPackedVsModelDifferential(t *testing.T) {
	toRef := func(i uint32) uint64 {
		if i == 0 {
			return 0
		}
		return MakeRef(i, (i-1)%3)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var p PackedRef
		p.Init(0, false, true)
		m := refModel{valid: true}
		for step := 0; step < 300; step++ {
			a := toRef(uint32(rng.Intn(9))) // 0 = nil
			b := toRef(uint32(rng.Intn(9)))
			m1, m2 := rng.Intn(2) == 0, rng.Intn(2) == 0
			v1, v2 := rng.Intn(2) == 0, rng.Intn(2) == 0
			var okP, okM bool
			switch rng.Intn(3) {
			case 0:
				okP, okM = p.CASNext(a, b), m.casNext(a, b)
			case 1:
				okP, okM = p.CASMark(m1, m2), m.casMark(m1, m2)
			case 2:
				okP, okM = p.CASMarkValid(m1, v1, m2, v2), m.casMarkValid(m1, v1, m2, v2)
			}
			if okP != okM {
				t.Fatalf("trial %d step %d: packed ok=%v model ok=%v", trial, step, okP, okM)
			}
			if got := p.Load(); got != (PackedSnapshot{Ref: m.ref, Marked: m.marked, Valid: m.valid}) {
				t.Fatalf("trial %d step %d: packed %+v model %+v", trial, step, got, m)
			}
		}
	}
}
