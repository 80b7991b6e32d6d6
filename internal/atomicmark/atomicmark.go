// Package atomicmark provides atomic references that carry a successor
// together with a "marked" and a "valid" bit, all of which can be inspected
// and replaced with a single compare-and-swap.
//
// The layered skip graph protocol (and the baseline lock-free skip list)
// requires operations such as casMarkValid(exp, new), which atomically flip
// the mark/valid bits of a level reference while leaving the successor
// untouched, and casNext(expMiddle, new), which replaces a chain of marked
// references with a single CAS (the paper's "relink optimization"). Both need
// (successor, mark, valid) to behave as one atomic word: PackedRef packs them
// into one uint64, with the successor expressed as an arena slot reference
// (see packed.go). A marked reference is never mutated again (Appendix C of
// the paper), which is what makes the relink optimization sound.
package atomicmark

// Snapshot is an immutable view of a reference: the successor pointer plus
// the marked and valid bits, observed atomically.
type Snapshot[T any] struct {
	// Next is the successor this reference points at.
	Next *T
	// Marked reports whether the reference is marked for physical removal.
	Marked bool
	// Valid reports whether the reference is logically valid (lazy variant);
	// non-lazy structures leave it permanently true.
	Valid bool
}
