// Package epoch implements the reclamation and snapshot machinery layered
// over the skip graph: a global epoch with per-participant pins (classic
// epoch-based reclamation), a global mutation sequence for MVCC visibility,
// and a registry of refcounted snapshot tickets that both freeze reclamation
// at their epoch and gate node retirement at their sequence.
//
// Three coordination problems meet here:
//
//  1. Memory safety. A reader that loaded a packed reference while pinned
//     must be able to dereference it: a slot is returned to its arena free
//     list only after every pin taken before the slot's retire epoch has
//     been released (MinPinned has advanced past it). Pins are padded
//     slots of a participant table NewDomain sizes once, one per stripe
//     handle; Pin publishes the current epoch with a store-recheck loop so
//     a racing Advance cannot strand a pin in the past.
//
//  2. Snapshot traversal. A snapshot iterator runs under its ticket, which
//     participates in MinPinned through the registry's minimum epoch — so
//     limbo slots cannot be recycled while any snapshot that could still
//     hold references to them is open.
//
//  3. Snapshot visibility. A node removed at sequence D must stay
//     physically traversable for every snapshot with sequence S < D (the
//     lazy protocol leaves it linked until retirement marks it, after which
//     relinks bypass it). SafeToRetire(D) therefore blocks retirement while
//     such a snapshot is live. The fast path is two atomic loads; the
//     ordering (acquiring counter first, then the cached minimum) plus the
//     rule that a ticket's sequence is read under the registry mutex makes
//     the check sound against in-flight Acquires: any Acquire the fast path
//     cannot see will draw a sequence at or above D.
//
// The zero Domain pointer is valid and inert: every method no-ops (pins
// return epoch 0, SafeToRetire always allows, Acquire returns a nil ticket),
// so structures that build no domain (the non-lazy layered variants) pay a
// nil check and nothing else.
package epoch

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// NoSequence is the MinSnapshotSeq/MinPinned result when nothing is live:
// every comparison against it allows.
const NoSequence = uint64(math.MaxUint64)

type padded struct {
	_      [64]byte //nolint:unused
	pinned atomic.Uint64
	_      [56]byte //nolint:unused
}

// Domain is one structure's epoch domain. All methods are safe for
// concurrent use; a nil *Domain is valid and inert.
type Domain struct {
	// global is the current epoch; epochs start at 1 so a pinned value of 0
	// can mean "unpinned".
	global atomic.Uint64
	// seq is the mutation sequence: every successful insert/remove
	// linearization draws one stamp.
	seq atomic.Uint64
	// lineage identifies the sequence space: stamps drawn from domains with
	// the same lineage are mutually ordered, stamps from different lineages
	// are not comparable. Fresh domains draw a random nonzero lineage; a
	// domain rebuilt from a persisted dump adopts the dump's lineage (and
	// advances seq past every persisted stamp) so its write-ahead log keeps
	// appending into the same sequence space.
	lineage atomic.Uint64

	// slots is the participant table, sized once by NewDomain: MinPinned
	// scans it lock-free, and Register hands out its entries in order.
	slots      []padded
	registered int

	// Snapshot registry. minSnapSeq/minSnapEpoch cache the minima over live
	// tickets (NoSequence when none); acquiring counts Acquire calls that
	// hold snapMu, letting SafeToRetire's lock-free fast path detect
	// in-flight registrations (see SafeToRetire).
	snapMu       sync.Mutex
	snapCond     *sync.Cond
	snaps        map[*Ticket]struct{}
	acquiring    atomic.Int64
	minSnapSeq   atomic.Uint64
	minSnapEpoch atomic.Uint64
}

// NewDomain builds a domain with a table of participants slots, one per
// Register call (at least one).
func NewDomain(participants int) *Domain {
	d := &Domain{slots: make([]padded, max(participants, 1))}
	d.global.Store(1)
	d.snaps = make(map[*Ticket]struct{})
	d.snapCond = sync.NewCond(&d.snapMu)
	d.minSnapSeq.Store(NoSequence)
	d.minSnapEpoch.Store(NoSequence)
	for d.lineage.Load() == 0 {
		d.lineage.Store(rand.Uint64())
	}
	return d
}

// Pin is one participant's epoch slot. Each Pin is owned by a single thread
// at a time (the same confinement discipline as stripe handles); Pin/Unpin
// pairs may nest.
type Pin struct {
	d     *Domain
	s     *padded
	depth int
}

// Register hands out the table's next participant slot, and panics once
// NewDomain's participants are all registered. It is not safe for
// concurrent use: the layered map registers one participant per stripe
// handle before the domain is shared.
func (d *Domain) Register() *Pin {
	if d == nil {
		return nil
	}
	if d.registered == len(d.slots) {
		panic("epoch: Register past the participants NewDomain sized the table for")
	}
	d.registered++
	return &Pin{d: d, s: &d.slots[d.registered-1]}
}

// Pin publishes the current epoch as this participant's pin and returns it.
// Nested calls keep the outermost pin. A nil Pin returns 0.
func (p *Pin) Pin() uint64 {
	if p == nil {
		return 0
	}
	if p.depth++; p.depth > 1 {
		return p.s.pinned.Load()
	}
	for {
		e := p.d.global.Load()
		p.s.pinned.Store(e)
		// Re-check: if an Advance raced between the load and the store, the
		// stored pin could otherwise lag an epoch behind what the reclaimer
		// already considers drained.
		if p.d.global.Load() == e {
			return e
		}
	}
}

// Unpin releases the participant's pin (outermost call only, when nested).
func (p *Pin) Unpin() {
	if p == nil {
		return
	}
	if p.depth--; p.depth == 0 {
		p.s.pinned.Store(0)
	}
}

// Epoch returns the current global epoch (0 on a nil domain).
func (d *Domain) Epoch() uint64 {
	if d == nil {
		return 0
	}
	return d.global.Load()
}

// Advance moves the global epoch forward and returns the new value. The
// layered map's reclamation pass calls it once per pass.
func (d *Domain) Advance() uint64 {
	if d == nil {
		return 0
	}
	return d.global.Add(1)
}

// NextSeq draws the next mutation sequence stamp.
func (d *Domain) NextSeq() uint64 {
	if d == nil {
		return 0
	}
	return d.seq.Add(1)
}

// Seq returns the latest drawn mutation sequence.
func (d *Domain) Seq() uint64 {
	if d == nil {
		return 0
	}
	return d.seq.Load()
}

// AdvanceSeq moves the mutation sequence to at least `to`, so every stamp
// drawn afterwards is strictly greater. The persistence layer calls it once,
// before any concurrent mutator exists, when a loaded map resumes a
// persisted sequence space (base-dump seq plus replayed WAL stamps); the CAS
// loop keeps it safe against concurrent NextSeq draws anyway.
func (d *Domain) AdvanceSeq(to uint64) {
	if d == nil {
		return
	}
	for {
		cur := d.seq.Load()
		if cur >= to || d.seq.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Lineage returns the domain's sequence-space identity (0 on a nil domain).
func (d *Domain) Lineage() uint64 {
	if d == nil {
		return 0
	}
	return d.lineage.Load()
}

// AdoptLineage rebinds the domain to a persisted sequence space. Call before
// the domain is shared (the persistence layer does, between the base load's
// replay and the first post-load mutation).
func (d *Domain) AdoptLineage(l uint64) {
	if d == nil {
		return
	}
	d.lineage.Store(l)
}

// MinPinned returns the minimum epoch pinned by any participant or live
// snapshot ticket, or NoSequence when nothing is pinned. A limbo entry
// armed at epoch e may be freed once MinPinned() > e (after the
// unreachability verification — see internal/core's reclamation pass).
func (d *Domain) MinPinned() uint64 {
	if d == nil {
		return NoSequence
	}
	min := d.minSnapEpoch.Load()
	for i := range d.slots {
		if p := d.slots[i].pinned.Load(); p != 0 && p < min {
			min = p
		}
	}
	return min
}

// --- Snapshot tickets ------------------------------------------------------

// Ticket is a live snapshot's registration: it freezes reclamation at its
// epoch (participating in MinPinned) and gates retirement at its sequence
// (participating in SafeToRetire) until Close. Tickets are refcounted
// handles in the sense that the registry holds them; Close is idempotent.
type Ticket struct {
	d     *Domain
	seq   uint64
	epoch uint64

	closeOnce sync.Once
}

// Acquire registers a new snapshot at the current sequence and epoch.
// Returns nil on a nil domain.
func (d *Domain) Acquire() *Ticket {
	if d == nil {
		return nil
	}
	d.snapMu.Lock()
	d.acquiring.Add(1)
	// The sequence is read while `acquiring` is visible: SafeToRetire's fast
	// path orders its loads (acquiring, then minSnapSeq) so an Acquire it
	// cannot see is guaranteed to read a sequence at or above the dead stamp
	// it is gating on.
	t := &Ticket{d: d, seq: d.seq.Load(), epoch: d.global.Load()}
	d.snaps[t] = struct{}{}
	d.refreshSnapMinsLocked()
	d.acquiring.Add(-1)
	d.snapMu.Unlock()
	return t
}

// Seq returns the snapshot's read sequence: the snapshot observes exactly
// the mutations stamped at or below it.
func (t *Ticket) Seq() uint64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Epoch returns the epoch the snapshot froze reclamation at.
func (t *Ticket) Epoch() uint64 {
	if t == nil {
		return 0
	}
	return t.epoch
}

// Close releases the snapshot's registration. Idempotent.
func (t *Ticket) Close() {
	if t == nil {
		return
	}
	t.closeOnce.Do(func() {
		d := t.d
		d.snapMu.Lock()
		delete(d.snaps, t)
		d.refreshSnapMinsLocked()
		d.snapCond.Broadcast()
		d.snapMu.Unlock()
	})
}

func (d *Domain) refreshSnapMinsLocked() {
	minSeq, minEpoch := NoSequence, NoSequence
	for t := range d.snaps {
		if t.seq < minSeq {
			minSeq = t.seq
		}
		if t.epoch < minEpoch {
			minEpoch = t.epoch
		}
	}
	d.minSnapSeq.Store(minSeq)
	d.minSnapEpoch.Store(minEpoch)
}

// LiveSnapshots returns the number of open tickets.
func (d *Domain) LiveSnapshots() int {
	if d == nil {
		return 0
	}
	d.snapMu.Lock()
	n := len(d.snaps)
	d.snapMu.Unlock()
	return n
}

// MinSnapshotSeq returns the minimum sequence over live tickets, or
// NoSequence when none are open.
func (d *Domain) MinSnapshotSeq() uint64 {
	if d == nil {
		return NoSequence
	}
	return d.minSnapSeq.Load()
}

// WaitNoSnapshots blocks until every ticket has been closed. Store.Close
// uses it so slots are never reclaimed out from under a live iterator after
// the structure is torn down.
func (d *Domain) WaitNoSnapshots() {
	if d == nil {
		return
	}
	d.snapMu.Lock()
	for len(d.snaps) > 0 {
		d.snapCond.Wait()
	}
	d.snapMu.Unlock()
}

// SafeToRetire reports whether a node whose current life was removed at
// sequence dead may be retired (marked for physical unlinking). It must
// return false while any snapshot with sequence < dead is live — such a
// snapshot still needs the node traversable.
//
// dead == 0 means the winning remover has invalidated the node but not yet
// stamped its death sequence. The stamp it will draw is above every live
// snapshot's sequence, so while any snapshot (or in-flight Acquire) is live
// the node must be treated as still needed; with none live it is retirable —
// a snapshot acquired later reads the node's marked bit, not its stamps, and
// skips it.
//
// Fast path: two atomic loads in acquire-then-minimum order. If the loads
// see no in-flight Acquire and a minimum at or above dead, then any Acquire
// invisible to them must draw its sequence after this call began — and dead
// was drawn before — so that snapshot's sequence is >= dead and does not
// need the node. Otherwise fall back to the registry mutex, which serializes
// against Acquire entirely.
func (d *Domain) SafeToRetire(dead uint64) bool {
	if d == nil {
		return true
	}
	if dead == 0 {
		if d.acquiring.Load() == 0 && d.minSnapSeq.Load() == NoSequence {
			return true
		}
		d.snapMu.Lock()
		none := len(d.snaps) == 0
		d.snapMu.Unlock()
		return none
	}
	if d.acquiring.Load() == 0 && d.minSnapSeq.Load() >= dead {
		return true
	}
	d.snapMu.Lock()
	min := NoSequence
	for t := range d.snaps {
		if t.seq < min {
			min = t.seq
		}
	}
	d.snapMu.Unlock()
	return min >= dead
}

// Stats is the domain's observability snapshot.
type Stats struct {
	// Epoch is the current global epoch.
	Epoch uint64 `json:"epoch"`
	// MinPinned is the oldest pinned epoch (0 when nothing is pinned).
	MinPinned uint64 `json:"min_pinned"`
	// PinLag is Epoch - MinPinned (0 when nothing is pinned): how far the
	// slowest pinner trails the reclamation frontier. A persistently large
	// lag means a stalled participant is blocking reclamation.
	PinLag uint64 `json:"pin_lag"`
	// Seq is the latest mutation sequence.
	Seq uint64 `json:"seq"`
	// LiveSnapshots is the number of open snapshot tickets. Any nonzero
	// value freezes slot reclamation and retirement of contended nodes.
	LiveSnapshots int `json:"live_snapshots"`
}

// Stats snapshots the domain for gauges. Safe concurrently; not atomic as a
// whole.
func (d *Domain) Stats() Stats {
	if d == nil {
		return Stats{}
	}
	st := Stats{Epoch: d.Epoch(), Seq: d.Seq(), LiveSnapshots: d.LiveSnapshots()}
	if min := d.MinPinned(); min != NoSequence {
		st.MinPinned = min
		if st.Epoch > min {
			st.PinLag = st.Epoch - min
		}
	}
	return st
}
