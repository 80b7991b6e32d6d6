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
// documented keys. The index's hits and misses are the point operations'
// origins, and the wal section exists exactly when a log is attached.
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

	// Every insert comes before every removal: a search that walks dead
	// nodes may retire them itself, and those retirements are not the
	// pass's. After the last insert no operation searches: the removals and
	// the reads of present keys hit the index, and reads of removed keys
	// answer on their unretired nodes.
	const keys = 6144
	for k := int64(0); k < keys; k++ {
		st.Insert(k, k)
	}
	for k := int64(0); k < keys; k++ {
		if k%16 != 0 {
			st.Remove(k)
		}
	}
	for k := int64(0); k < keys; k++ {
		st.Get(k)
	}
	for i := 0; i < 4; i++ {
		st.Map().Reclaim()
	}
	if err := st.Barrier(); err != nil {
		t.Fatal(err)
	}
	dumpDir := t.TempDir()
	if _, err := st.StoreToDisk(dumpDir); err != nil {
		t.Fatal(err)
	}

	s := tracer.Snapshot()
	if r := s.Reclaim; r == nil || r.Passes == 0 || r.Retired == 0 || r.Freed == 0 || r.LiveKeys != keys/16 || r.SlotsPerLiveKey == 0 {
		t.Fatalf("reclaim section = %+v, want passes, retirements, frees, %d live keys and slots per live key", r, keys/16)
	}
	if a := s.Arena; a == nil || a.SlotsUsed == 0 || a.SlotsReclaimed == 0 || len(a.Shards) != sockets {
		t.Fatalf("arena section = %+v, want used and reclaimed slots over %d shards", a, sockets)
	}
	if e := s.Epoch; e == nil || e.Epoch <= 1 || e.Seq == 0 {
		t.Fatalf("epoch section = %+v, want an advanced epoch and a mutation sequence", e)
	}
	var hits, misses uint64
	for _, op := range []string{"get", "insert", "remove"} {
		o := s.Ops[op].Origins
		hits += o["local-hit"]
		misses += o["local-jump"] + o["head"]
	}
	if x := s.Index; x == nil || x.Hits != hits || x.Misses != misses || hits == 0 || misses == 0 {
		t.Fatalf("index section = %+v, want %d hits and %d misses, the point operations' origins", x, hits, misses)
	}
	if x := s.Index; x.Publishes == 0 || x.Unpublishes == 0 || x.Entries == 0 || x.Slots == 0 {
		t.Fatalf("index section = %+v, want publishes, unpublishes, entries and slots", x)
	}
	if l := s.WAL; l == nil || l.Commits == 0 || l.Fsyncs == 0 {
		t.Fatalf("wal section = %+v, want commits and fsyncs", l)
	}

	var text bytes.Buffer
	if err := s.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"  reclaim ", "  arena ", "  epoch ", "  index ", "  wal "} {
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
		"index":   {"entries", "hits", "misses", "publishes", "slots", "unpublishes"},
		"wal":     {"commit_wait_ns", "commits", "errs", "fsyncs", "group_commits"},
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

	// A load attaches its log after the build: the section appears then,
	// and a load without a log has none.
	for _, walDir := range []string{"", t.TempDir()} {
		lt := NewTracer(TracerConfig{Name: "sections-load"})
		defer lt.Close()
		ld, _, err := LoadFromDisk[int64, int64](dumpDir, Config{
			Machine: persistMachine(t, sockets, 2, 4),
			Kind:    LazyLayeredSG,
			WAL:     walDir,
			Tracer:  lt,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := lt.Snapshot().WAL
		ld.Close()
		if (l != nil) != (walDir != "") {
			t.Errorf("load with WAL dir %q: wal section = %+v", walDir, l)
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
