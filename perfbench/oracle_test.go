package main

import (
	"testing"

	"layeredsg"
)

// TestOracleDetectsInjectedFaults loads a small store, then injects one
// missing key (a loaded key removed behind the oracle's back) and one wrong
// value (an unloaded key inserted with a value other than 3·key). Each of
// the oracle's checkers must report exactly those two failures, and none on
// the store before the injection.
func TestOracleDetectsInjectedFaults(t *testing.T) {
	cfg, err := baseConfig()
	if err != nil {
		t.Fatal(err)
	}
	st, err := layeredsg.NewStore[int64, int64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	loaded := make([]int64, 64)
	for i := range loaded {
		loaded[i] = 2 * int64(i)
	}
	var load tally
	if err := bulkLoad(st, loaded, make([]int8, len(loaded)), &load); err != nil {
		t.Fatal(err)
	}
	if load.failed != 0 {
		t.Fatalf("load: %d failures: %v", load.failed, load.notes)
	}
	isLoaded := func(k int64) bool { return k%2 == 0 && k < 2*int64(len(loaded)) }

	checkAll := func() (gets, scans, state tally) {
		for k := int64(0); k < 160; k++ {
			want := unknown
			if isLoaded(k) {
				want = present
			}
			v, ok := st.Get(k)
			gets.checkGet(k, v, ok, want)
		}
		var got []kv
		st.RangeScan(0, 159, func(k, v int64) bool {
			got = append(got, kv{k, v})
			return true
		})
		scans.checkScan(0, 159, got, loaded)
		all, err := storeKeys(st)
		if err != nil {
			t.Fatal(err)
		}
		state.checkState(all, loaded)
		return
	}

	gets, scans, state := checkAll()
	for name, tl := range map[string]tally{"get": gets, "scan": scans, "state": state} {
		if tl.failed != 0 {
			t.Errorf("%s checker on a correct store: %d failures: %v", name, tl.failed, tl.notes)
		}
	}

	const missing, wrong = int64(10), int64(101)
	if !st.Remove(missing) {
		t.Fatalf("remove %d failed", missing)
	}
	if !st.Insert(wrong, valueOf(wrong)+1) {
		t.Fatalf("insert %d failed", wrong)
	}
	gets, scans, state = checkAll()
	for name, tl := range map[string]tally{"get": gets, "scan": scans, "state": state} {
		if tl.failed != 2 {
			t.Errorf("%s checker: %d failures, want 2: %v", name, tl.failed, tl.notes)
		}
	}
}

// TestOracleWrites checks the write and batch checkers count each key a
// call did not apply.
func TestOracleWrites(t *testing.T) {
	var tl tally
	tl.checkWrite("insert", 1, true)
	tl.checkWrite("remove", 1, false)
	tl.checkCount("insert batch", 0, 30, batchKeys)
	tl.checkErr("barrier", nil)
	if tl.attempted != 4 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3", tl.attempted, tl.failed)
	}
}
