package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"layeredsg"
)

// parseSkew decodes the -skew flag: "uniform", "zipf" / "zipf:1.5", or
// "hot" / "hot:0.9".
func parseSkew(s string) (dist layeredsg.Distribution, zipfS, hotP float64, err error) {
	name, arg, hasArg := strings.Cut(s, ":")
	var v float64
	if hasArg {
		v, err = strconv.ParseFloat(arg, 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bad -skew parameter %q: %v", arg, err)
		}
	}
	switch name {
	case "uniform":
		if hasArg {
			return 0, 0, 0, fmt.Errorf("-skew uniform takes no parameter")
		}
		return layeredsg.Uniform, 0, 0, nil
	case "zipf":
		return layeredsg.Zipf, v, 0, nil
	case "hot":
		return layeredsg.Hotspot, 0, v, nil
	default:
		return 0, 0, 0, fmt.Errorf("unknown -skew %q (want uniform, zipf[:s], or hot[:p])", s)
	}
}

// suiteParams carries the tunables the fixed scenario grid inherits from the
// command line.
type suiteParams struct {
	threads  int
	duration time.Duration
	runs     int
	seed     int64
	yield    int
	jsonPath string
}

// scenarioResult is one grid cell of machine-readable benchmark output — the
// schema of the BENCH_<n>.json files tracking the perf trajectory across PRs.
type scenarioResult struct {
	Scenario    string  `json:"scenario"`
	Algo        string  `json:"algo"`
	Threads     int     `json:"threads"`
	KeySpace    int64   `json:"keyspace"`
	UpdateRatio float64 `json:"update"`
	Skew        string  `json:"skew"`
	OpsPerMs    float64 `json:"ops_per_ms"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	TotalOps    uint64  `json:"total_ops"`
}

// runSuite runs the fixed scenario grid — the paper's HC/MC × WH/RH cells on
// lazy_layered_sg plus a hotspot-skew cell — and writes one JSON array so
// results diff across PRs.
func runSuite(w io.Writer, machine *layeredsg.Machine, p suiteParams) error {
	scenarios := []struct {
		name     string
		keySpace int64
		update   float64
		skew     string
	}{
		{"HC-WH", 1 << 8, 0.5, "uniform"},
		{"HC-RH", 1 << 8, 0.2, "uniform"},
		{"MC-WH", 1 << 14, 0.5, "uniform"},
		{"MC-RH", 1 << 14, 0.2, "uniform"},
		{"MC-RH-hot", 1 << 14, 0.2, "hot:0.9"},
	}

	results := make([]scenarioResult, 0, len(scenarios))
	const algo = "lazy_layered_sg"
	for _, sc := range scenarios {
		dist, zipfS, hotP, err := parseSkew(sc.skew)
		if err != nil {
			return err
		}
		wl := layeredsg.Workload{
			KeySpace:        sc.keySpace,
			UpdateRatio:     sc.update,
			Duration:        p.duration,
			PreloadFraction: 0.5,
			Seed:            p.seed,
			YieldEvery:      p.yield,
			Distribution:    dist,
			ZipfS:           zipfS,
			Skew:            hotP,
			LatencySample:   64,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := layeredsg.RunAverage(machine, algo, layeredsg.AdapterOptions{
			KeySpace: sc.keySpace,
			Seed:     p.seed,
		}, wl, p.runs)
		if err != nil {
			return fmt.Errorf("scenario %s: %v", sc.name, err)
		}
		runtime.ReadMemStats(&after)
		allocsPerOp := 0.0
		if res.TotalOps > 0 {
			// Mallocs delta includes preload and adapter construction, so this
			// is an upper bound; it is stable enough to diff across PRs.
			allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(res.TotalOps)
		}
		sr := scenarioResult{
			Scenario:    sc.name,
			Algo:        algo,
			Threads:     p.threads,
			KeySpace:    sc.keySpace,
			UpdateRatio: sc.update,
			Skew:        sc.skew,
			OpsPerMs:    res.OpsPerMs,
			P50Ns:       res.Latency.P50Ns,
			P99Ns:       res.Latency.P99Ns,
			AllocsPerOp: allocsPerOp,
			TotalOps:    res.TotalOps,
		}
		results = append(results, sr)
		fmt.Fprintf(w, "%-22s %10.0f ops/ms  p50=%-10s p99=%-10s allocs/op=%.2f\n",
			sc.name, sr.OpsPerMs, time.Duration(sr.P50Ns), time.Duration(sr.P99Ns), sr.AllocsPerOp)
	}

	if p.jsonPath != "" {
		f, err := os.Create(p.jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d scenarios)\n", p.jsonPath, len(results))
	}
	return nil
}
