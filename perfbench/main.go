// Command perfbench is the repository's benchmark: closed-loop workloads
// driven through the public layeredsg.Store API by two client goroutines.
// An untraced run prints the end-to-end metrics; a traced run (--trace 1)
// decomposes sampled Store calls into the public calls they are made of,
// records a span around each, reads the counters the program exports, and
// prints the per-layer metrics. See README.md for the workloads and metrics.
//
//	go run . --workload point --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// deadline bounds a whole run: a run that cannot finish in time fails
// without printing a result rather than overrunning its caller's budget.
const deadline = 175 * time.Second

func main() {
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tiny     bool
	outDir   string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var size string
	fs.StringVar(&o.workload, "workload", "", "workload to run: point, scan or durable")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "seconds of timed rounds")
	fs.IntVar(&trace, "trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
	fs.StringVar(&size, "size", "full", "full, or tiny for smoke tests")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for span files, result records and WAL/dump data")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want point, scan or durable)", o.workload)
	}
	if o.seconds < 1 || o.seconds > 120 {
		return o, fmt.Errorf("--seconds %d out of range [1, 120]", o.seconds)
	}
	switch trace {
	case 0, 1:
		o.trace = trace == 1
	default:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	switch size {
	case "full", "tiny":
		o.tiny = size == "tiny"
	default:
		return o, fmt.Errorf("--size must be full or tiny, got %q", size)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var res *result
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runUntraced(o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout, o); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
