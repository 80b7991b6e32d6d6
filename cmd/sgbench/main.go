// Command sgbench runs a single Synchrobench-style trial of one algorithm —
// the ad-hoc counterpart of cmd/experiments.
//
// Usage:
//
//	sgbench -algo lazy_layered_sg -threads 16 -keyspace 16384 -update 0.5 \
//	        -duration 2s -runs 3
//
// Algorithm labels follow the paper; run with -list to see them.
//
// Both access styles are benchmarkable: the default drives raw confined
// handles (one worker per pinned thread, the paper's setting); -via-store
// drives the goroutine-safe Store facade instead, and -goroutines N then
// oversubscribes it with more workers than pinned threads (request-serving
// style):
//
//	sgbench -algo lazy_layered_sg -threads 16 -via-store -goroutines 64
//
// -latency-sample N samples every Nth operation's wall-clock latency and
// prints its quantiles:
//
//	sgbench -algo lazy_layered_sg -latency-sample 64
//
// The observability layer attaches with -observe (prints per-op metrics —
// latency percentiles, jump origins, CAS retries — after the run) and
// -debug-addr, which additionally serves /debug/pprof, /debug/vars,
// /debug/obs, and /debug/trace over HTTP for the run's duration:
//
//	sgbench -algo lazy_layered_sg -duration 30s -debug-addr localhost:6060
//
// The persistence trial (-dump / -load, optionally -wal) fills a store with
// -keyspace keys, times a StoreToDisk and/or a LoadFromDisk under the machine
// the flags describe, and reports keys/s and MB/s each way. With a WAL,
// -wal-sync selects what Store.Barrier, the log's only acknowledgment,
// promises: never (a flush to the OS) or group (an fsync shared by
// concurrent acknowledgers). The fill acknowledges every batch with a
// Barrier and the trial reports the policy's toll — fsyncs, commits,
// group-commit riders, and commit-wait time (`make bench-wal` sweeps both
// policies):
//
//	sgbench -dump /tmp/d -load /tmp/d -keyspace 10000000 -threads 16
//	sgbench -dump /tmp/d -wal /tmp/w -wal-sync group -keyspace 1000000
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"layeredsg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sgbench", flag.ContinueOnError)
	var (
		algo      = fs.String("algo", "lazy_layered_sg", "algorithm label")
		list      = fs.Bool("list", false, "list algorithms and exit")
		threads   = fs.Int("threads", 8, "worker threads")
		keySpace  = fs.Int64("keyspace", 1<<14, "distinct keys")
		update    = fs.Float64("update", 0.5, "requested update ratio")
		duration  = fs.Duration("duration", time.Second, "measured duration per run")
		runs      = fs.Int("runs", 1, "runs to average")
		preload   = fs.Float64("preload", 0.2, "preload fraction of the key space")
		seed      = fs.Int64("seed", 42, "random seed")
		pin       = fs.Bool("pin", false, "LockOSThread for workers")
		yield     = fs.Int("yield", 1, "Gosched every N ops (0 disables)")
		sockets   = fs.Int("sockets", 2, "simulated sockets")
		cores     = fs.Int("cores", 24, "cores per socket")
		smt       = fs.Int("smt", 2, "hardware threads per core")
		viaStore  = fs.Bool("via-store", false, "drive the goroutine-safe Store facade instead of raw handles (layered variants only)")
		workers   = fs.Int("goroutines", 0, "worker goroutines (0 = one per thread; >threads requires -via-store)")
		observe   = fs.Bool("observe", false, "attach the observability layer (event tracing + metrics; layered variants only) and print its snapshot")
		debugAddr = fs.String("debug-addr", "", "serve /debug/pprof, /debug/vars, /debug/obs, /debug/trace on this address (implies -observe)")
		latEvery  = fs.Int("latency-sample", 0, "sample every Nth operation's wall-clock latency and print quantiles (0 disables)")
		skew      = fs.String("skew", "uniform", "key distribution: uniform, zipf[:s] (Zipfian, exponent s > 1), or hot[:p] (fraction p of ops on the hot 10% of keys)")
		dumpDir   = fs.String("dump", "", "persistence trial: fill a store with -keyspace keys and StoreToDisk into this directory, reporting dump throughput")
		loadDir   = fs.String("load", "", "persistence trial: LoadFromDisk from this directory under the machine flags, reporting load throughput (combine with -dump for a round trip)")
		walDir    = fs.String("wal", "", "with -dump/-load: journal mutations to a write-ahead log in this directory")
		walSync   = fs.String("wal-sync", "never", "with -wal: what Store.Barrier promises — never (a flush to the OS) or group (an fsync shared by concurrent Barriers); the fill acknowledges each batch with a Barrier and the trial reports fsyncs, commits, and group sizes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(w, strings.Join(layeredsg.Algorithms(), "\n"))
		return nil
	}

	topo, err := layeredsg.NewTopology(*sockets, *cores, *smt)
	if err != nil {
		return err
	}
	machine, err := layeredsg.Pin(topo, *threads)
	if err != nil {
		return err
	}
	if *dumpDir != "" || *loadDir != "" {
		pol, err := layeredsg.ParseWALSyncPolicy(*walSync)
		if err != nil {
			return err
		}
		return runPersist(w, machine, *dumpDir, *loadDir, *walDir, pol, *keySpace)
	}
	dist, zipfS, hotP, err := parseSkew(*skew)
	if err != nil {
		return err
	}
	wl := layeredsg.Workload{
		KeySpace:        *keySpace,
		UpdateRatio:     *update,
		Duration:        *duration,
		PreloadFraction: *preload,
		Seed:            *seed,
		LockOSThread:    *pin,
		YieldEvery:      *yield,
		Distribution:    dist,
		ZipfS:           zipfS,
		Skew:            hotP,
		Goroutines:      *workers,
		LatencySample:   *latEvery,
	}
	var tracer *layeredsg.Tracer
	if *observe || *debugAddr != "" {
		tracer = layeredsg.NewTracer(layeredsg.TracerConfig{Name: *algo})
		defer tracer.Close()
		layeredsg.SetObservability(true)
		defer layeredsg.SetObservability(false)
	}
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		srv := &http.Server{Handler: layeredsg.DebugMux(tracer)}
		go srv.Serve(ln) //nolint:errcheck // closed with the listener on exit
		defer srv.Close()
		fmt.Fprintf(w, "debug server:       http://%s/debug/\n", ln.Addr())
	}
	res, err := layeredsg.RunAverage(machine, *algo, layeredsg.AdapterOptions{
		KeySpace: *keySpace,
		Seed:     *seed,
		ViaStore: *viaStore,
		Observe:  tracer,
	}, wl, *runs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "algorithm:          %s\n", res.Algorithm)
	fmt.Fprintf(w, "threads:            %d\n", res.Threads)
	if res.Goroutines != res.Threads {
		fmt.Fprintf(w, "goroutines:         %d (oversubscribed via Store leases)\n", res.Goroutines)
	}
	fmt.Fprintf(w, "throughput:         %.0f ops/ms\n", res.OpsPerMs)
	fmt.Fprintf(w, "total operations:   %d (%d runs)\n", res.TotalOps, *runs)
	fmt.Fprintf(w, "effective updates:  %.1f%% (requested %.0f%%)\n", res.EffectiveUpdatePct, *update*100)
	if *skew != "uniform" {
		fmt.Fprintf(w, "key distribution:   %s\n", *skew)
	}
	if l := res.Latency; l.Count > 0 {
		fmt.Fprintf(w, "latency (sampled):  p50=%s p90=%s p99=%s p999=%s max=%s (%d samples)\n",
			time.Duration(l.P50Ns), time.Duration(l.P90Ns), time.Duration(l.P99Ns),
			time.Duration(l.P999Ns), time.Duration(l.MaxNs), l.Count)
	}
	if tracer != nil {
		fmt.Fprintln(w)
		if err := tracer.Snapshot().WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

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
