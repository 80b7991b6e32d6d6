package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// metric is one reported number with its unit and the samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is one run's outcome. Every metric is printed and recorded; the
// last line of output carries only the metrics BENCHMARK.json lists for
// the run's mode.
type result struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Trace     bool           `json:"trace"`
	Correct   bool           `json:"correct"`
	Attempted uint64         `json:"attempted"`
	Failed    uint64         `json:"failed"`
	Notes     []string       `json:"failure_notes,omitempty"`
	Metrics   []metric       `json:"metrics"`
	Extra     []metric       `json:"workload_metrics,omitempty"`
	Meta      map[string]any `json:"meta"`

	selfTimes []selfTime
}

func newResult(o options, s *runner) *result {
	r := &result{Workload: o.workload, Seed: o.seed, Trace: o.trace, Meta: map[string]any{}}
	r.Meta["commit"] = envOr("PERFBENCH_COMMIT", "unknown")
	r.Meta["go_version"] = runtime.Version()
	r.Meta["num_cpu"] = runtime.NumCPU()
	r.Meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.Meta["machine"] = machineShape()
	r.Meta["clients"] = clients
	r.Meta["size"] = map[bool]string{false: "full", true: "tiny"}[o.tiny]
	abs, err := filepath.Abs(s.sc.root)
	if err != nil {
		abs = s.sc.root
	}
	r.Meta["data_dir"] = abs
	r.Meta["data_fs"] = fsType(s.sc.root)
	return r
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.Metrics = append(r.Metrics, metric{name, v, unit, samples})
}

// extra records a workload-specific metric that is reported but not gated.
func (r *result) extra(name string, v float64, unit string, samples int) {
	r.Extra = append(r.Extra, metric{name, v, unit, samples})
}

func (r *result) finish(t tally) {
	r.Attempted, r.Failed, r.Notes = t.attempted, t.failed, t.notes
	r.Correct = t.failed == 0 && t.attempted > 0
	r.extra("failed_op_ratio", ratio(float64(t.failed), float64(t.attempted)), "ratio", int(t.attempted))
}

// resultLine is the last line of output: the outcome and the metrics
// BENCHMARK.json lists for the run's mode.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, records the full result under
// the output directory, and ends with the result line.
func (r *result) print(w io.Writer, o options) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	byName := map[string]metric{}
	for _, m := range r.Metrics {
		byName[m.Name] = m
	}
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultItem{}}
	for _, d := range defs {
		m, ok := byName[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = resultItem{m.Value, d.unit}
	}

	fmt.Fprintf(w, "# perfbench workload=%s seed=%d trace=%v\n", r.Workload, r.Seed, r.Trace)
	for _, m := range append(append([]metric(nil), r.Metrics...), r.Extra...) {
		fmt.Fprintf(w, "# %-34s %16.6g %-12s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, st := range r.selfTimes {
		fmt.Fprintf(w, "# span %-22s n=%-7d p50=%.0fns self_p50=%.0fns\n", st.name, st.n, st.p50, st.self)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# FAILED CHECK: %s\n", n)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	mode := map[bool]string{false: "e2e", true: "traced"}[r.Trace]
	path := filepath.Join(o.outDir, fmt.Sprintf("result-%s-%s-seed%d-%d.json", r.Workload, mode, r.Seed, os.Getpid()))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "# result record: %s\n", path)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
