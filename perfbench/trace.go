package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"layeredsg"
)

// spanName names a span: a root span is the Store call a client made; its
// children are the public calls that Store call is made of.
type spanName uint8

const (
	spGet spanName = iota
	spInsert
	spRemove
	spRangeScan
	spInsertBatch
	spDo
	spBarrier
	spStoreToDisk
	spLoadFromDisk
	spAcquire
	spRelease
	spHandleGet
	spHandleInsert
	spHandleRemove
	spSnapshot
	spAscendFrom
	spSeek // Snapshot.AscendFrom call → first key
	spWalk // first key → return
	spSnapClose
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"Store.Get", "Store.Insert", "Store.Remove", "Store.RangeScan", "Store.InsertBatch",
	"Store.Do", "Store.Barrier", "Store.StoreToDisk", "LoadFromDisk",
	"Store.Acquire", "Lease.Release", "Handle.Get", "Handle.Insert", "Handle.Remove",
	"Store.Snapshot", "Snapshot.AscendFrom", "AscendFrom.seek", "AscendFrom.walk", "Snapshot.Close",
}

// getPath is the lookup path a Handle.Get took, known from the leased
// stripe and the stripe that inserted the key.
type getPath uint8

const (
	pathNone  getPath = iota
	pathLocal         // present key the leased stripe inserted: own local hash
	pathIndex         // present key another stripe inserted: shared hash index
	pathMiss          // absent key: index miss → local floor → descent
	pathOther         // present key of unknown origin (another client's churn)
	nPaths
)

var pathNames = [nPaths]string{"", "local", "index", "miss", "other"}

// source tells the workload's own traffic from the sweep that follows it.
type source uint8

const (
	srcTraffic source = iota
	srcSweep
	nSources
)

var sourceNames = [nSources]string{"traffic", "sweep"}

// span is one timed call. Times are nanoseconds since the run's trace epoch.
type span struct {
	req, id, parent uint64
	name            spanName
	src             source
	path            getPath
	keys            int32 // keys a walk yielded or a batch carried
	start, end      int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanBudget is the most spans one decomposed call records (an InsertBatch
// of batchKeys keys plus its lease and root).
const spanBudget = batchKeys + 4

// tracer is one client's span recorder. On every period-th call the client
// routes through it; it then makes the call out of its public parts and
// records a span around each. Spans stay in memory until the run writes
// them out; once limit spans are held, sampling stops.
type tracer struct {
	epoch    time.Time
	client   uint64
	period   uint32
	count    uint32
	src      source
	limit    int
	next     uint64
	spans    []span
	classify func(k int64, stripe int, found bool) getPath
}

func newTracer(epoch time.Time, client int, period uint32, limit int, classify func(int64, int, bool) getPath) *tracer {
	return &tracer{epoch: epoch, client: uint64(client) + 1, period: period, limit: limit,
		spans: make([]span, 0, limit), classify: classify}
}

func (t *tracer) sample() bool {
	t.count++
	return t.count%t.period == 0 && t.room()
}

// room reports whether another decomposed call fits under the limit.
// RangeScan calls skip the period: a round holds only a hundred or so.
func (t *tracer) room() bool { return len(t.spans)+spanBudget <= t.limit }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its index; close ends it.
func (t *tracer) open(req, parent uint64, name spanName) int {
	t.next++
	id := t.client<<40 | t.next
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, span{req: req, id: id, parent: parent, name: name, src: t.src, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].end = t.now() }

// root opens a request's root span and returns its index and request id.
func (t *tracer) root(name spanName) (int, uint64) {
	i := t.open(0, 0, name)
	return i, t.spans[i].id
}

func (t *tracer) acquire(st *store, req uint64) *layeredsg.Lease[int64, int64] {
	i := t.open(req, req, spAcquire)
	l := st.Acquire()
	t.close(i)
	return l
}

func (t *tracer) release(l *layeredsg.Lease[int64, int64], req uint64) {
	i := t.open(req, req, spRelease)
	l.Release()
	t.close(i)
}

// get is Store.Get: Store.Acquire → Lease.Handle().Get → Lease.Release.
func (t *tracer) get(st *store, k int64) (int64, bool) {
	r, req := t.root(spGet)
	l := t.acquire(st, req)
	g := t.open(req, req, spHandleGet)
	v, ok := l.Handle().Get(k)
	t.close(g)
	t.spans[g].path = t.classify(k, l.Stripe(), ok)
	t.release(l, req)
	t.close(r)
	return v, ok
}

// write is Store.Insert or Store.Remove made the same way as get.
func (t *tracer) write(st *store, k int64, insert bool) bool {
	name, inner := spRemove, spHandleRemove
	if insert {
		name, inner = spInsert, spHandleInsert
	}
	r, req := t.root(name)
	l := t.acquire(st, req)
	w := t.open(req, req, inner)
	var ok bool
	if insert {
		ok = l.Handle().Insert(k, valueOf(k))
	} else {
		ok = l.Handle().Remove(k)
	}
	t.close(w)
	t.release(l, req)
	t.close(r)
	return ok
}

// rangeScan is Store.RangeScan: Store.Snapshot → Snapshot.AscendFrom →
// Snapshot.Close, with the AscendFrom span split at the first key into its
// seek and its walk.
func (t *tracer) rangeScan(st *store, from, to int64, buf []kv) []kv {
	r, req := t.root(spRangeScan)
	defer t.close(r)
	s := t.open(req, req, spSnapshot)
	snap, err := st.Snapshot()
	t.close(s)
	if err != nil {
		return buf // the oracle reports the range's keys missing
	}
	a := t.open(req, req, spAscendFrom)
	aid := t.spans[a].id
	seek, walk := t.open(req, aid, spSeek), -1
	snap.AscendFrom(from, func(k, v int64) bool {
		if walk < 0 {
			t.close(seek)
			walk = t.open(req, aid, spWalk)
		}
		if k > to {
			return false
		}
		buf = append(buf, kv{k, v})
		return true
	})
	if walk < 0 {
		t.close(seek)
	} else {
		t.close(walk)
		t.spans[walk].keys = int32(len(buf))
	}
	t.close(a)
	c := t.open(req, req, spSnapClose)
	snap.Close()
	t.close(c)
	return buf
}

// insertBatch is Store.InsertBatch: one lease, Handle.Insert per key.
func (t *tracer) insertBatch(st *store, keys, vals []int64) (int, error) {
	r, req := t.root(spInsertBatch)
	t.spans[r].keys = int32(len(keys))
	l := t.acquire(st, req)
	n := 0
	for j, k := range keys {
		i := t.open(req, req, spHandleInsert)
		if l.Handle().Insert(k, vals[j]) {
			n++
		}
		t.close(i)
	}
	t.release(l, req)
	t.close(r)
	return n, nil
}

// removeAll is a Store.Do session removing keys: one lease, Handle.Remove
// per key.
func (t *tracer) removeAll(st *store, keys []int64) int {
	r, req := t.root(spDo)
	t.spans[r].keys = int32(len(keys))
	l := t.acquire(st, req)
	n := 0
	for _, k := range keys {
		i := t.open(req, req, spHandleRemove)
		if l.Handle().Remove(k) {
			n++
		}
		t.close(i)
	}
	t.release(l, req)
	t.close(r)
	return n
}

func (t *tracer) barrier(st *store) error {
	r, _ := t.root(spBarrier)
	err := st.Barrier()
	t.close(r)
	return err
}

// spanRecord is a span's line in the span file.
type spanRecord struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Src    string `json:"src"`
	Path   string `json:"path,omitempty"`
	Keys   int32  `json:"keys,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := spanRecord{Req: s.req, ID: s.id, Parent: s.parent, Name: spanNames[s.name],
			Src: sourceNames[s.src], Path: pathNames[s.path], Keys: s.keys, Start: s.start, End: s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans parses a span file written by writeSpans.
func readSpans(r io.Reader) ([]span, error) {
	index := func(names []string, s string) (int, error) {
		for i, n := range names {
			if n == s {
				return i, nil
			}
		}
		return 0, fmt.Errorf("unknown span field value %q", s)
	}
	var spans []span
	dec := json.NewDecoder(r)
	for dec.More() {
		var rec spanRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		name, err := index(spanNames[:], rec.Name)
		if err != nil {
			return nil, err
		}
		src, err := index(sourceNames[:], rec.Src)
		if err != nil {
			return nil, err
		}
		path, err := index(pathNames[:], rec.Path)
		if err != nil {
			return nil, err
		}
		spans = append(spans, span{req: rec.Req, id: rec.ID, parent: rec.Parent, name: spanName(name),
			src: source(src), path: getPath(path), keys: rec.Keys, start: rec.Start, end: rec.End})
	}
	return spans, nil
}
