package atomicmark

import "sync/atomic"

// PackedRef is an atomic (successor, marked, valid) triple with the
// successor expressed as a generation-tagged arena slot reference instead of
// a pointer, so the whole triple fits one machine word:
//
//	bits 34..63  successor slot's reuse generation (30 bits, wraps)
//	bits 2..33   successor's arena index (0 = nil)
//	bit  1       valid
//	bit  0       marked
//
// Every mutation is a single CAS on the word — no allocation, no
// pointer-bit stealing (the word is a plain integer the GC never scans) —
// and a marked reference is never mutated again, which keeps the relink
// optimization sound (Appendix C of the paper).
//
// The generation tag exists because arena slots are reclaimed and reused
// (see internal/node's free lists): each time a slot returns to its shard's
// free list its generation is bumped, and every reference to the slot embeds
// the generation observed at link time. A CAS whose expected reference was
// captured before the slot was recycled therefore fails on the generation
// mismatch instead of silently succeeding against an unrelated node — the
// classic ABA hazard of index-based linking. 30 bits of generation wrap
// after ~10^9 reuses of one slot, far beyond any epoch-bounded window in
// which a stale expectation can survive.
//
// PackedRef deliberately knows nothing about arenas: it speaks slot
// references (MakeRef/RefIndex/RefGen), and the owner (internal/node)
// translates between references and *Node via its Arena. The zero value is a
// nil, unmarked, *invalid* reference.
type PackedRef struct {
	w atomic.Uint64
}

// PackedSnapshot is an immutable view of a PackedRef: Snapshot in
// slot-reference space.
type PackedSnapshot struct {
	// Ref is the successor's generation-tagged slot reference
	// (gen<<32 | index); a zero index means nil.
	Ref uint64
	// Marked reports whether the reference is marked for physical removal.
	Marked bool
	// Valid reports whether the reference is logically valid.
	Valid bool
}

// Index returns the arena-index half of the snapshot's slot reference.
func (s PackedSnapshot) Index() uint32 { return RefIndex(s.Ref) }

// Gen returns the generation half of the snapshot's slot reference.
func (s PackedSnapshot) Gen() uint32 { return RefGen(s.Ref) }

const (
	packedMarkedBit = 1 << 0
	packedValidBit  = 1 << 1
	packedRefShift  = 2

	// PackedGenBits is the width of the generation tag; generations wrap
	// modulo 1<<PackedGenBits.
	PackedGenBits = 30
	// PackedGenMask masks a generation counter down to its stored width.
	PackedGenMask = 1<<PackedGenBits - 1
)

// MakeRef composes a slot reference from an arena index and the slot's
// current reuse generation. Index 0 (nil) conventionally carries
// generation 0 so nil references compare equal regardless of provenance.
func MakeRef(index, gen uint32) uint64 {
	return uint64(gen&PackedGenMask)<<32 | uint64(index)
}

// RefIndex extracts the arena index from a slot reference.
func RefIndex(ref uint64) uint32 { return uint32(ref) }

// RefGen extracts the generation from a slot reference.
func RefGen(ref uint64) uint32 { return uint32(ref >> 32) }

// PackWord encodes a (ref, marked, valid) triple into its word form.
// Exported for tests and tooling that assert on raw layouts.
func PackWord(ref uint64, marked, valid bool) uint64 {
	// ref = gen<<32 | index, so one shift lands the index at bit 2 and the
	// generation at bit 34.
	w := ref << packedRefShift
	if marked {
		w |= packedMarkedBit
	}
	if valid {
		w |= packedValidBit
	}
	return w
}

// UnpackWord decodes a word back into its triple.
func UnpackWord(w uint64) PackedSnapshot {
	return PackedSnapshot{
		Ref:    w >> packedRefShift,
		Marked: w&packedMarkedBit != 0,
		Valid:  w&packedValidBit != 0,
	}
}

// Init sets the initial state. Intended for node constructors, before the
// node is published.
func (r *PackedRef) Init(ref uint64, marked, valid bool) {
	r.w.Store(PackWord(ref, marked, valid))
}

// Load returns an atomic snapshot of the reference.
func (r *PackedRef) Load() PackedSnapshot {
	return UnpackWord(r.w.Load())
}

// Ref returns the successor slot reference (index half 0 = nil).
func (r *PackedRef) Ref() uint64 {
	return r.w.Load() >> packedRefShift
}

// Index returns the successor's arena index (0 = nil), without its
// generation.
func (r *PackedRef) Index() uint32 {
	return RefIndex(r.w.Load() >> packedRefShift)
}

// Marked returns the marked bit.
func (r *PackedRef) Marked() bool {
	return r.w.Load()&packedMarkedBit != 0
}

// Valid returns the valid bit.
func (r *PackedRef) Valid() bool {
	return r.w.Load()&packedValidBit != 0
}

// MarkValid returns the (marked, valid) pair atomically.
func (r *PackedRef) MarkValid() (marked, valid bool) {
	w := r.w.Load()
	return w&packedMarkedBit != 0, w&packedValidBit != 0
}

// Store unconditionally replaces the reference. Use only before the owning
// node is published, or in sequential contexts.
func (r *PackedRef) Store(ref uint64, marked, valid bool) {
	r.w.Store(PackWord(ref, marked, valid))
}

// CASNext replaces the successor slot reference from exp to next, preserving
// the current valid bit, provided the reference is currently unmarked and its
// successor is exp — generation included, so an expectation captured before
// the successor's slot was recycled fails here rather than ABA-ing onto the
// slot's new occupant. It fails if the reference is marked — marked
// references are immutable. Returns true on success.
func (r *PackedRef) CASNext(exp, next uint64) bool {
	for {
		w := r.w.Load()
		if w&packedMarkedBit != 0 || w>>packedRefShift != exp {
			return false
		}
		if r.w.CompareAndSwap(w, next<<packedRefShift|w&packedValidBit) {
			return true
		}
	}
}

// CASMark flips the marked bit from expMarked to newMarked, preserving the
// slot reference and valid bit. Returns true on success; false if the
// current mark differs from expMarked.
func (r *PackedRef) CASMark(expMarked, newMarked bool) bool {
	for {
		w := r.w.Load()
		if w&packedMarkedBit != 0 != expMarked {
			return false
		}
		want := w &^ packedMarkedBit
		if newMarked {
			want = w | packedMarkedBit
		}
		if r.w.CompareAndSwap(w, want) {
			return true
		}
	}
}

// CASValid flips the valid bit from expValid to newValid, preserving slot
// reference and mark. Returns true on success.
func (r *PackedRef) CASValid(expValid, newValid bool) bool {
	for {
		w := r.w.Load()
		if w&packedValidBit != 0 != expValid {
			return false
		}
		want := w &^ packedValidBit
		if newValid {
			want = w | packedValidBit
		}
		if r.w.CompareAndSwap(w, want) {
			return true
		}
	}
}

// CASMarkValid atomically replaces the (marked, valid) pair, preserving the
// slot reference, provided the current pair equals (expMarked, expValid).
// This is the paper's casMarkValid: the linearization point of lazy insert
// and remove.
func (r *PackedRef) CASMarkValid(expMarked, expValid, newMarked, newValid bool) bool {
	for {
		w := r.w.Load()
		if w&packedMarkedBit != 0 != expMarked || w&packedValidBit != 0 != expValid {
			return false
		}
		want := w >> packedRefShift << packedRefShift
		if newMarked {
			want |= packedMarkedBit
		}
		if newValid {
			want |= packedValidBit
		}
		if r.w.CompareAndSwap(w, want) {
			return true
		}
	}
}

// CASSnapshot performs a full-triple CAS: it succeeds only if the current
// state equals exp in all three components (slot reference — generation
// included — plus both bits), installing want. The relink optimization uses
// it to swing a predecessor across a chain of marked references while
// asserting the predecessor itself is still unmarked.
func (r *PackedRef) CASSnapshot(exp, want PackedSnapshot) bool {
	return r.w.CompareAndSwap(
		PackWord(exp.Ref, exp.Marked, exp.Valid),
		PackWord(want.Ref, want.Marked, want.Valid),
	)
}
