package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFig10(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig10"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "expect 1/2^i") {
		t.Fatalf("fig10 output wrong:\n%s", out.String())
	}
}

func TestThroughputFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-exp", "fig2",
		"-threads", "4",
		"-duration", "20ms",
		"-out", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "HC-WH throughput") {
		t.Fatalf("missing table header:\n%s", out.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "algorithm,threads,ops_per_ms") {
		t.Fatal("csv header wrong")
	}
}

func TestTable1SmallScale(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "table1", "-heavy-threads", "4", "-duration", "20ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CAS success rate") {
		t.Fatalf("table1 output wrong:\n%s", out.String())
	}
}

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("2, 4,8")
	if err != nil || len(got) != 3 || got[2] != 8 {
		t.Fatalf("parseThreads = %v, %v", got, err)
	}
	if _, err := parseThreads("2,x"); err == nil {
		t.Fatal("bad list accepted")
	}
	if _, err := parseThreads("0"); err == nil {
		t.Fatal("zero accepted")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestMoreDispatches(t *testing.T) {
	cases := map[string]string{
		"fig5":         "nodes/search",
		"fig12":        "MC-RH throughput",
		"table2":       "L1/op",
		"heatmap-cas":  "distance",
		"heatmap-read": "skiplist",
	}
	for exp, want := range cases {
		t.Run(exp, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{
				"-exp", exp,
				"-threads", "2",
				"-heavy-threads", "4",
				"-duration", "15ms",
			}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s output missing %q", exp, want)
			}
		})
	}
}

// TestCASHeatmapWithCSV checks that the CAS heatmap writes the lazy
// layered skip graph's CSV with one row per thread.
func TestCASHeatmapWithCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-exp", "heatmap-cas",
		"-heavy-threads", "8",
		"-duration", "15ms",
		"-out", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "distance") {
		t.Fatalf("missing distance summary:\n%s", out.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "heatmap_cas_lazy_layered_sg.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(csv), "\n"); rows != 8 {
		t.Fatalf("csv rows = %d want 8", rows)
	}
}
