package main

import "fmt"

// Every entry the benchmark writes maps key → 3·key, so any read can be
// checked without a copy of the data.
func valueOf(k int64) int64 { return 3 * k }

// kv is one entry a scan yielded.
type kv struct{ k, v int64 }

// maxNotes bounds the failure messages a tally keeps for the report.
const maxNotes = 5

// tally is one goroutine's share of the correctness oracle: operations
// whose results were checked, failed checks plus returned errors, and the
// first few failure messages. Each goroutine owns its tally; merge combines
// them after the goroutines have stopped.
type tally struct {
	attempted uint64
	failed    uint64
	notes     []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < maxNotes {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < maxNotes {
			t.notes = append(t.notes, n)
		}
	}
}

// presence is what a client's model knows about a key.
type presence int8

const (
	unknown presence = iota // another client may be mutating it
	present
	absent
)

// checkGet checks a point read of k that returned (v, found): a key the
// model knows is present must be found, a key it knows is absent must not
// be, and any key found must carry 3·k.
func (t *tally) checkGet(k, v int64, found bool, want presence) {
	t.attempted++
	switch {
	case want == present && !found:
		t.fail("get %d: present key not found", k)
	case want == absent && found:
		t.fail("get %d: absent key found", k)
	case found && v != valueOf(k):
		t.fail("get %d: value %d, want %d", k, v, valueOf(k))
	}
}

// checkWrite checks an Insert or Remove the model expects to succeed.
func (t *tally) checkWrite(op string, k int64, ok bool) {
	t.attempted++
	if !ok {
		t.fail("%s %d returned false", op, k)
	}
}

// checkCount checks a batch call that should have applied want keys
// starting at first; each key it did not apply is one failure.
func (t *tally) checkCount(op string, first int64, got, want int) {
	t.attempted++
	for ; got < want; got++ {
		t.fail("%s from %d: a key was not applied", op, first)
	}
}

// checkErr counts an operation that reports only an error.
func (t *tally) checkErr(op string, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", op, err)
	}
}

// checkScan checks the entries RangeScan(from, to) yielded: strictly
// ascending, inside [from, to], every value 3·key, and every key of want
// (the sorted keys the model knows are present in the range) among them.
// Keys outside want may appear: other clients' writes are not modelled.
func (t *tally) checkScan(from, to int64, got []kv, want []int64) {
	t.attempted++
	for i, e := range got {
		if e.k < from || e.k > to {
			t.fail("scan [%d, %d]: key %d out of range", from, to, e.k)
		}
		if i > 0 && e.k <= got[i-1].k {
			t.fail("scan [%d, %d]: key %d after %d", from, to, e.k, got[i-1].k)
		}
		if e.v != valueOf(e.k) {
			t.fail("scan [%d, %d]: key %d has value %d", from, to, e.k, e.v)
		}
	}
	t.missing(fmt.Sprintf("scan [%d, %d]", from, to), got, want)
}

// checkState checks a quiescent store's full contents against the model's
// exact live set want (sorted): no key missing, none extra, every value
// 3·key.
func (t *tally) checkState(got []kv, want []int64) {
	t.attempted++
	j := 0
	for _, e := range got {
		for j < len(want) && want[j] < e.k {
			t.fail("state: key %d missing", want[j])
			j++
		}
		if j < len(want) && want[j] == e.k {
			j++
			if e.v != valueOf(e.k) {
				t.fail("state: key %d has value %d", e.k, e.v)
			}
			continue
		}
		t.fail("state: unexpected key %d", e.k)
	}
	for ; j < len(want); j++ {
		t.fail("state: key %d missing", want[j])
	}
}

// missing counts each key of want (sorted) absent from got (ascending).
func (t *tally) missing(what string, got []kv, want []int64) {
	i := 0
	for _, k := range want {
		for i < len(got) && got[i].k < k {
			i++
		}
		if i == len(got) || got[i].k != k {
			t.fail("%s: key %d missing", what, k)
		}
	}
}
