package layeredsg

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
)

// TestTracerSnapshotSections checks that every subsystem section of a
// tracer snapshot is wired end to end: a WAL-journaled Store is churned with
// tracing on past the reclamation floor (4,096 dead nodes), reclaimed by
// forced passes and dumped, and then each section must be present,
// counting, printed by WriteText, and exported by WriteJSON under its
// documented keys.
func TestTracerSnapshotSections(t *testing.T) {
	const sockets = 2
	var now atomic.Int64
	tracer := NewTracer(TracerConfig{Name: "sections"})
	defer tracer.Close()
	st, err := NewStore[int64, int64](Config{
		Machine:          persistMachine(t, sockets, 2, 4),
		Kind:             LazyLayeredSG,
		Seed:             1,
		CommissionPeriod: 500,
		Clock:            func() int64 { return now.Add(50) },
		WAL:              t.TempDir(),
		Tracer:           tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	SetObservability(true)
	defer SetObservability(false)

	const keys = 2048
	for round := int64(0); round < 3; round++ {
		for k := round * keys; k < (round+1)*keys; k++ {
			st.Insert(k, k)
		}
		for k := round * keys; k < (round+1)*keys; k++ {
			if k%16 != 0 {
				st.Remove(k)
			}
		}
		for k := round * keys; k < (round+1)*keys; k++ {
			st.Get(k)
		}
	}
	for i := 0; i < 4; i++ {
		st.Map().Reclaim()
	}
	if err := st.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.StoreToDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}

	s := tracer.Snapshot()
	if r := s.Reclaim; r == nil || r.Passes == 0 || r.Retired == 0 || r.Freed == 0 || r.LiveKeys != 3*keys/16 || r.SlotsPerLiveKey == 0 {
		t.Fatalf("reclaim section = %+v, want passes, retirements, frees, %d live keys and slots per live key", r, 3*keys/16)
	}
	if a := s.Arena; a == nil || a.SlotsUsed == 0 || a.SlotsReclaimed == 0 || len(a.Shards) != sockets {
		t.Fatalf("arena section = %+v, want used and reclaimed slots over %d shards", a, sockets)
	}
	if e := s.Epoch; e == nil || e.Epoch <= 1 || e.Seq == 0 {
		t.Fatalf("epoch section = %+v, want an advanced epoch and a mutation sequence", e)
	}
	if x := s.Index; x == nil || x.Publishes == 0 || x.Entries == 0 || x.Slots == 0 {
		t.Fatalf("index section = %+v, want publishes, entries and slots", x)
	}
	if p := s.Persist; p == nil || p.DumpRecords == 0 || p.WALCommits == 0 {
		t.Fatalf("persist section = %+v, want dump records and WAL commits", p)
	}

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"  reclaim ", "  arena ", "  epoch ", "  index ", "  persist "} {
		if !strings.Contains(text.String(), "\n"+line) {
			t.Errorf("WriteText has no %q line:\n%s", strings.TrimSpace(line), text.String())
		}
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(js.Bytes(), &sections); err != nil {
		t.Fatal(err)
	}
	shardKeys := []string{"chunks", "slots_free", "slots_reclaimed", "slots_reserved", "slots_reused", "slots_used"}
	want := map[string][]string{
		"reclaim": {"freed", "limbo_depth", "live_keys", "passes", "retired", "slots_per_live_key"},
		"arena":   append([]string{"shards"}, shardKeys...),
		"epoch":   {"epoch", "live_snapshots", "min_pinned", "pin_lag", "seq"},
		"index":   {"entries", "fallbacks", "hits", "misses", "publishes", "slots", "stale", "unpublishes"},
		"persist": {"dump_bytes", "dump_records", "load_bytes", "load_records", "wal_commit_wait_ns", "wal_commits",
			"wal_discarded", "wal_errs", "wal_fsyncs", "wal_group_commits", "wal_replayed"},
	}
	for name, keys := range want {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(sections[name], &obj); err != nil {
			t.Fatalf("section %q: %v", name, err)
		}
		if got := sortedKeys(obj); !reflect.DeepEqual(got, sortedStrings(keys)) {
			t.Errorf("section %q keys = %v, want %v", name, got, sortedStrings(keys))
		}
		if name != "arena" {
			continue
		}
		var shards []map[string]json.RawMessage
		if err := json.Unmarshal(obj["shards"], &shards); err != nil || len(shards) != sockets {
			t.Fatalf("arena shards = %s (%v), want %d objects", obj["shards"], err, sockets)
		}
		if got := sortedKeys(shards[0]); !reflect.DeepEqual(got, shardKeys) {
			t.Errorf("arena shard keys = %v, want %v", got, shardKeys)
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
