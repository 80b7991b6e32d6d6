package obs

import "sync/atomic"

// Ring is a fixed-capacity lock-free trace buffer: a single producer (the
// goroutine currently owning the stripe's handle — exclusive by the layered
// map's confinement contract) publishes packed events, and any number of
// concurrent readers snapshot them without stopping the producer.
//
// Every shared word is atomic, so producer and readers never race in the
// -race sense, and a slow reader never blocks a writer: the producer simply
// wraps and overwrites, and the reader detects the overwrite through the
// per-slot sequence word (a seqlock per slot):
//
//	producer               reader
//	seq ← 0                h ← head
//	words ← event          if slot.seq == i+1:  copy words
//	seq ← i+1              if slot.seq == i+1:  event i is intact
//	head ← i+1             else: overwritten mid-read, skip it
//
// Sequence numbers increase monotonically per slot (i+1, i+1+cap, ...), so a
// torn read can never be mistaken for a clean one.
type Ring struct {
	mask  uint64
	head  atomic.Uint64 // next sequence to be written
	slots []ringSlot
}

type ringSlot struct {
	seq atomic.Uint64 // sequence+1 of the committed event; 0 = being written
	w   [eventWords]atomic.Uint64
}

// ringCapacity is each stripe's event capacity.
const ringCapacity = 4096

// newRing builds a ring with capacity rounded up to a power of two (min 8).
func newRing(capacity int) *Ring {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
}

// Capacity returns the ring's slot count.
func (r *Ring) Capacity() int { return len(r.slots) }

// Head returns the next sequence number to be written (= events ever put).
func (r *Ring) Head() uint64 { return r.head.Load() }

// put publishes one event, overwriting the oldest slot when full, and stamps
// e.Seq. Single producer only.
func (r *Ring) put(e *Event) {
	h := r.head.Load()
	e.Seq = h
	s := &r.slots[h&r.mask]
	s.seq.Store(0)
	var w [eventWords]uint64
	e.encode(&w)
	for i := range w {
		s.w[i].Store(w[i])
	}
	s.seq.Store(h + 1)
	r.head.Store(h + 1)
}

// ReadSince appends to out every intact event with sequence in [from, head),
// oldest first, and returns the extended slice plus the next cursor (pass it
// back as from to read only newer events). Events overwritten before or
// during the read are skipped — the ring is lossy by design.
func (r *Ring) ReadSince(from uint64, out []Event) ([]Event, uint64) {
	h := r.head.Load()
	lo := from
	if n := uint64(len(r.slots)); h > n && lo < h-n {
		lo = h - n
	}
	var w [eventWords]uint64
	for i := lo; i < h; i++ {
		s := &r.slots[i&r.mask]
		if s.seq.Load() != i+1 {
			continue // still being written, or already overwritten
		}
		for j := range w {
			w[j] = s.w[j].Load()
		}
		if s.seq.Load() != i+1 {
			continue // overwritten mid-copy: torn, discard
		}
		var e Event
		e.decode(&w)
		e.Seq = i
		out = append(out, e)
	}
	return out, h
}
