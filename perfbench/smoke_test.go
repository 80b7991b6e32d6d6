package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trafficSpanMetrics are, per workload, the span metrics its own traffic
// must produce (the others may come from the sweep).
var trafficSpanMetrics = map[string][]string{
	"point": {"store.lease_ns_p50", "core.get_local_ns_p50", "core.get_index_ns_p50",
		"core.get_miss_ns_p50", "core.write_ns_p50"},
	"scan": {"store.lease_ns_p50", "core.write_ns_p50", "epoch.snapshot_ns_p50",
		"core.scan_seek_ns_p50", "core.scan_ns_per_key"},
	"durable": {"store.lease_ns_p50", "core.write_ns_p50", "core.insert_batch_ns_per_key",
		"persist.barrier_ns_p50", "persist.barrier_ns_p90"},
}

// spanDerived lists the per-layer metrics spanMetrics computes.
var spanDerived = []string{
	"store.lease_ns_p50", "core.get_local_ns_p50", "core.get_index_ns_p50", "core.get_miss_ns_p50",
	"core.write_ns_p50", "epoch.snapshot_ns_p50", "core.scan_seek_ns_p50", "core.scan_ns_per_key",
	"core.insert_batch_ns_per_key", "persist.barrier_ns_p50", "persist.barrier_ns_p90",
}

// runTiny runs one tiny-size workload in-process and returns its report
// and parsed last line.
func runTiny(t *testing.T, workload string, trace bool, out string) (string, resultLine) {
	t.Helper()
	mode := "0"
	if trace {
		mode = "1"
	}
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", mode, "--size", "tiny", "--out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", last.Correct, last.Attempted, last.Failed, stdout.String())
	}
	if !strings.Contains(stdout.String(), "failed_op_ratio") {
		t.Errorf("report lacks failed_op_ratio:\n%s", stdout.String())
	}
	return stdout.String(), last
}

func checkMetrics(t *testing.T, got map[string]resultItem, defs []metricDef, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("last line has %d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		case positive && !(m.Value > 0):
			t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	for _, wl := range []string{"point", "scan", "durable"} {
		t.Run(wl, func(t *testing.T) {
			out := t.TempDir()
			_, last := runTiny(t, wl, false, out)
			checkMetrics(t, last.Metrics, endToEnd, true)

			_, last = runTiny(t, wl, true, out)
			checkMetrics(t, last.Metrics, perLayer, false)
			files, err := filepath.Glob(filepath.Join(out, "spans-"+wl+"-*.jsonl"))
			if err != nil || len(files) != 1 {
				t.Fatalf("span files %v (%v), want one", files, err)
			}
			f, err := os.Open(files[0])
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, err := readSpans(f)
			if err != nil {
				t.Fatalf("parsing %s: %v", files[0], err)
			}
			got := spanMetrics(spans)
			for _, name := range spanDerived {
				if m, ok := got[name]; !ok || !(m.value > 0) {
					t.Errorf("span file yields no %s (%+v)", name, m)
				}
			}
			for _, name := range trafficSpanMetrics[wl] {
				if got[name].src != srcTraffic {
					t.Errorf("%s comes from the %s, want the workload's traffic", name, sourceNames[got[name].src])
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	same := func(kind string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
