package core

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"layeredsg/internal/epoch"
	"layeredsg/internal/node"
	"layeredsg/internal/stats"
)

// This file implements the MVCC read surface over the epoch domain: life
// stamps (born/dead mutation sequences maintained at the lazy protocol's
// linearization points), the revival log preserving superseded life
// intervals for open snapshots, and the Snapshot type — a consistent
// point-in-time iterator.
//
// # Visibility model
//
// Every successful insert and remove draws one stamp from the domain's
// mutation sequence. A snapshot acquired at sequence S observes exactly the
// mutations stamped at or below S ("the prefix of the stamp order"): a key
// is present iff some life interval [born, dead) of a node holding it covers
// S. This is snapshot isolation, not realtime linearizability — a mutation
// whose linearization CAS happened before the snapshot was acquired but
// whose stamp was drawn after it is ordered after the snapshot. Sequentially
// (one mutator) the two orders coincide.
//
// # Stamp protocol
//
// Fresh insert: after the level-0 link CAS, StampBornCAS(next-seq) — a CAS
// from 0, so a racing remover that already backfilled the birth wins and the
// insert's own stamp is dropped.
//
// Remove (the winner of the valid-bit t→f CAS): wait until dead == 0 (a
// pending reviver owns the transition out of the previous interval),
// backfill born if the fresh insert has not stamped yet, then stamp dead.
//
// Revival (the winner of the valid-bit f→t CAS): wait until dead != 0 (the
// remover that closed the previous life must stamp before us, or the
// intervals would interleave out of CAS order), preserve the closed interval
// in the revival log if an open snapshot may still need it, then stamp the
// new birth and clear dead — in that order, so transitional states read as
// invisible rather than as impossible intervals.
//
// All three run under the node's life lock except the fresh-born CAS, which
// is reconciled by the CAS itself. The strict remover/reviver alternation
// (each waits out the other's pending stamp) keeps every key's intervals
// disjoint in stamp space, which is what lets a snapshot emit each key at
// most once.

// stampFreshBorn stamps a freshly bottom-linked node's birth. No-op without
// a domain.
func (m *Map[K, V]) stampFreshBorn(n *node.Node[K, V]) {
	if m.domain == nil {
		return
	}
	n.StampBornCAS(m.domain.NextSeq())
	if m.wal != nil {
		// Journal with the stamp that actually defines the birth: if a racing
		// remover's backfill won the CAS, our drawn sequence was dropped and
		// BornSeq holds the winner — logging the drawn value would put the
		// insert after the matching remove in replay order.
		m.wal.Insert(n.BornSeq(), n.Key(), n.Value())
	}
}

// stampDead closes the current life of a node this thread just removed (won
// the valid t→f CAS). No-op without a domain.
func (m *Map[K, V]) stampDead(n *node.Node[K, V], tr *stats.ThreadRecorder) {
	if m.domain == nil {
		return
	}
	n.LockLife()
	for n.DeadSeq() != 0 {
		// A pending reviver owns the transition out of the previous interval;
		// our removal closes the life it is about to open. Poll through an
		// instrumented read: under the deterministic stepper this parks us so
		// the reviver can run its stamp — a raw Gosched spin would never hand
		// it the schedule.
		n.UnlockLife()
		n.DeadSeqRead(tr)
		runtime.Gosched()
		n.LockLife()
	}
	if n.BornSeq() == 0 {
		// The fresh insert that created this life has not stamped yet: backfill
		// (CAS, so whichever stamp lands first defines the birth).
		n.StampBornCAS(m.domain.NextSeq())
	}
	n.SetDead(m.domain.NextSeq())
	if m.wal != nil {
		// Still under the life lock, so per-key journal order is stamp order.
		m.wal.Remove(n.DeadSeq(), n.Key())
	}
	n.UnlockLife()
}

// stampRevive opens a new life on a node this thread just revived (won the
// valid f→t CAS), preserving the previous interval for open snapshots.
// No-op without a domain.
func (m *Map[K, V]) stampRevive(n *node.Node[K, V], tr *stats.ThreadRecorder) {
	if m.domain == nil {
		return
	}
	n.LockLife()
	for n.DeadSeq() == 0 {
		// The remover that closed the previous life has not stamped it yet; its
		// stamps must precede ours in sequence order. Poll through an
		// instrumented read so the deterministic stepper can park us and
		// schedule the remover (see stampDead).
		n.UnlockLife()
		n.DeadSeqRead(tr)
		runtime.Gosched()
		n.LockLife()
	}
	oldBorn, oldDead := n.BornSeq(), n.DeadSeq()
	if oldBorn != 0 && m.domain.MinSnapshotSeq() < oldDead {
		// Some open snapshot's sequence may fall inside the closed interval,
		// and our new birth stamp is about to hide it: preserve it. (Snapshots
		// acquired after this check draw sequences at or above oldDead and
		// never need it.) The append precedes the SetBorn below, so a walker
		// that reads the new birth is guaranteed to find the entry.
		m.history.append(n.Key(), n.Value(), oldBorn, oldDead)
	}
	n.SetBorn(m.domain.NextSeq())
	n.SetDead(0)
	if m.wal != nil {
		// Still under the life lock, so per-key journal order is stamp order.
		m.wal.Insert(n.BornSeq(), n.Key(), n.Value())
	}
	n.UnlockLife()
}

// lifeInterval is one preserved [born, dead) interval and the value the key
// carried through it.
type lifeInterval[V any] struct {
	value V
	born  uint64
	dead  uint64
}

// revivalLog preserves life intervals that revivals overwrote while an open
// snapshot could still need them. Appends happen under the node's life lock;
// lookups come from snapshot walkers. Entries are pruned once no open
// snapshot can fall inside them.
type revivalLog[K cmp.Ordered, V any] struct {
	d     *epoch.Domain
	mu    sync.Mutex
	byKey map[K][]lifeInterval[V]
	n     int
	limit int
}

func newRevivalLog[K cmp.Ordered, V any](d *epoch.Domain) *revivalLog[K, V] {
	return &revivalLog[K, V]{d: d, byKey: make(map[K][]lifeInterval[V]), limit: 1024}
}

func (l *revivalLog[K, V]) append(key K, value V, born, dead uint64) {
	l.mu.Lock()
	l.byKey[key] = append(l.byKey[key], lifeInterval[V]{value: value, born: born, dead: dead})
	l.n++
	if l.n >= l.limit {
		l.pruneLocked()
	}
	l.mu.Unlock()
}

// pruneLocked drops every interval no open snapshot can observe: dead <=
// min-snapshot-seq means no live snapshot's sequence precedes the interval's
// close. With no snapshots open the whole log empties.
func (l *revivalLog[K, V]) pruneLocked() {
	minSnap := l.d.MinSnapshotSeq()
	for key, entries := range l.byKey {
		kept := entries[:0]
		for _, e := range entries {
			if e.dead > minSnap {
				kept = append(kept, e)
			}
		}
		l.n -= len(entries) - len(kept)
		if len(kept) == 0 {
			delete(l.byKey, key)
		} else {
			l.byKey[key] = kept
		}
	}
	l.limit = 1024
	if l.n*2 > l.limit {
		l.limit = l.n * 2
	}
}

// lookup returns the value key carried in the preserved interval covering
// sequence s, if any. Per-key intervals are disjoint, so at most one covers
// s.
func (l *revivalLog[K, V]) lookup(key K, s uint64) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.byKey[key] {
		if e.born <= s && s < e.dead {
			return e.value, true
		}
	}
	var zero V
	return zero, false
}

// Snapshot is a consistent point-in-time view of the map: it observes
// exactly the mutations stamped at or below its sequence (see the visibility
// model above). While open it holds a domain ticket that (a) freezes slot
// reclamation at its epoch, so the walk may dereference freely, and (b)
// gates retirement, so every node it can still need stays physically
// traversable. Close it promptly: an open snapshot stalls reclamation and
// blocks Map.Close.
//
// A Snapshot's read methods are safe for concurrent use with map operations,
// but the Snapshot itself is not safe for concurrent use by multiple
// goroutines (except through Visit, which coordinates internally).
type Snapshot[K cmp.Ordered, V any] struct {
	m      *Map[K, V]
	tk     *epoch.Ticket
	closed bool
}

// Snapshot acquires a consistent point-in-time view. It errors on non-lazy
// variants, which have no epoch machinery: they unlink removed nodes
// promptly, so a frozen traversal cannot be served.
func (m *Map[K, V]) Snapshot() (*Snapshot[K, V], error) {
	if m.domain == nil {
		return nil, fmt.Errorf("core: %s supports no snapshots (requires a lazy variant)", m.cfg.Kind)
	}
	return &Snapshot[K, V]{m: m, tk: m.domain.Acquire()}, nil
}

// Seq returns the snapshot's read sequence.
func (s *Snapshot[K, V]) Seq() uint64 { return s.tk.Seq() }

// Close releases the snapshot's ticket, unfreezing reclamation. Idempotent.
func (s *Snapshot[K, V]) Close() {
	s.closed = true
	s.tk.Close()
}

// Ascend visits every key present at the snapshot's sequence in ascending
// key order until fn returns false.
func (s *Snapshot[K, V]) Ascend(fn func(key K, value V) bool) {
	var zero K
	s.walk(zero, false, fn)
}

// AscendFrom is Ascend restricted to keys >= from.
func (s *Snapshot[K, V]) AscendFrom(from K, fn func(key K, value V) bool) {
	s.walk(from, true, fn)
}

// walk is the snapshot traversal: a bottom-level sweep filtering by life
// stamps, patched by the revival log.
//
// Per data node, with S the snapshot sequence:
//
//   - unmarked and VisibleAt(S): the node's current life covers S — emit.
//   - marked: skip. Retirement was gated on SafeToRetire, so a marked node's
//     death either precedes every snapshot live at retire time (ours
//     included, if we were) or precedes our acquisition entirely (if we were
//     not yet live, the node's removal CAS was already settled — the
//     snapshot reflects it, even when the laggard's death stamp lands above
//     S).
//   - born > S: the node's current life began after the snapshot; if a
//     previous life of this key covered S, the revival that hid it preserved
//     the interval in the log before overwriting the stamps — consult it.
//     (At most one in-chain node per key can carry born > S while we are
//     live, so the log emit fires at most once per key.)
//
// Keys the walk yields are strictly increasing; the guard also drops any
// re-visit a racing relink could produce.
func (s *Snapshot[K, V]) walk(from K, haveFrom bool, fn func(key K, value V) bool) {
	if s.closed {
		panic("core: walk on a closed Snapshot")
	}
	seq := s.tk.Seq()
	var lastKey K
	haveLast := false
	cur := s.m.sg.BottomHead().Next(0, nil)
	for cur != nil && cur.Kind() != node.Tail {
		if cur.Kind() != node.Data || (haveFrom && cur.LessThan(from)) {
			cur = cur.Next(0, nil)
			continue
		}
		key := cur.Key()
		if haveLast && key <= lastKey {
			cur = cur.Next(0, nil)
			continue
		}
		if !cur.RawMarked(0) && cur.VisibleAt(seq) {
			lastKey, haveLast = key, true
			if !fn(key, cur.Value()) {
				return
			}
		} else if cur.BornSeq() > seq {
			if v, ok := s.m.history.lookup(key, seq); ok {
				lastKey, haveLast = key, true
				if !fn(key, v) {
					return
				}
			}
		}
		cur = cur.Next(0, nil)
	}
}

// Visit streams every entry present at the snapshot's sequence through fn on
// a pool of worker goroutines: one walker traverses (traversal order is
// inherently sequential) while workers apply fn to batches in parallel. fn
// must be safe for concurrent calls; no ordering is guaranteed across
// batches. workers < 2 degrades to a sequential Ascend.
func (s *Snapshot[K, V]) Visit(workers int, fn func(key K, value V)) {
	if workers < 2 {
		s.Ascend(func(k K, v V) bool { fn(k, v); return true })
		return
	}
	type pair struct {
		k K
		v V
	}
	const batchSize = 256
	ch := make(chan []pair, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for batch := range ch {
				for _, p := range batch {
					fn(p.k, p.v)
				}
			}
		}()
	}
	batch := make([]pair, 0, batchSize)
	s.Ascend(func(k K, v V) bool {
		batch = append(batch, pair{k: k, v: v})
		if len(batch) == batchSize {
			ch <- batch
			batch = make([]pair, 0, batchSize)
		}
		return true
	})
	if len(batch) > 0 {
		ch <- batch
	}
	close(ch)
	wg.Wait()
}
