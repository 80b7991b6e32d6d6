package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"layeredsg"
)

// runPersist is the persistence trial behind -dump / -load: fill a store with
// `keys` sequential keys through the striped batch-insert path, time a
// StoreToDisk, and/or time a LoadFromDisk under the machine the flags
// describe. Both directions report records, bytes, keys/s, and MB/s (the
// numbers EXPERIMENTS.md records via `make bench-persist`). With a WAL, the
// fill journals under walSync and acknowledges each batch with Store.Barrier;
// the fill line then carries the durability toll (`make bench-wal` sweeps
// the policies through this path).
func runPersist(w io.Writer, machine *layeredsg.Machine, dumpDir, loadDir, walDir string, walSync layeredsg.WALSyncPolicy, keys int64) error {
	if dumpDir != "" {
		cfg := layeredsg.Config{Machine: machine, Kind: layeredsg.LazyLayeredSG, WAL: walDir, WALSync: walSync}
		var tracer *layeredsg.Tracer
		if walDir != "" {
			tracer = layeredsg.NewTracer(layeredsg.TracerConfig{Name: "sgbench_wal"})
			defer tracer.Close()
			cfg.Tracer = tracer
		}
		st, err := layeredsg.NewStore[int64, int64](cfg)
		if err != nil {
			return err
		}
		fillStart := time.Now()
		if err := fillStore(st, keys, machine.Threads(), walDir != ""); err != nil {
			return err
		}
		fmt.Fprintf(w, "fill:               %d keys in %v (%s keys/s)\n",
			keys, time.Since(fillStart).Round(time.Millisecond), rate(uint64(keys), time.Since(fillStart)))
		if tracer != nil {
			if l := tracer.Snapshot().WAL; l != nil {
				groupSize := float64(0)
				if l.Fsyncs > 0 {
					groupSize = float64(l.GroupCommits+l.Fsyncs) / float64(l.Fsyncs)
				}
				fmt.Fprintf(w, "wal sync:           policy=%s fsyncs=%d commits=%d riders=%d mean_group=%.1f commit_wait=%v\n",
					walSync, l.Fsyncs, l.Commits, l.GroupCommits, groupSize,
					time.Duration(l.CommitWaitNs).Round(time.Microsecond))
			}
		}
		ds, err := st.StoreToDisk(dumpDir)
		if err != nil {
			return err
		}
		st.Close()
		fmt.Fprintf(w, "dump:               %d records, %.1f MB in %v\n",
			ds.Records, float64(ds.Bytes)/1e6, ds.Elapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "dump throughput:    %s keys/s, %.0f MB/s\n",
			rate(ds.Records, ds.Elapsed), float64(ds.Bytes)/1e6/ds.Elapsed.Seconds())
	}
	if loadDir != "" {
		cfg := layeredsg.Config{Machine: machine, Kind: layeredsg.LazyLayeredSG, WAL: walDir, WALSync: walSync}
		st, ls, err := layeredsg.LoadFromDisk[int64, int64](loadDir, cfg)
		if err != nil {
			return err
		}
		st.Close()
		fmt.Fprintf(w, "load:               %d records, %.1f MB in %v (dumped by a %d-socket/%d-thread machine)\n",
			ls.Records, float64(ls.Bytes)/1e6, ls.Elapsed.Round(time.Millisecond),
			ls.Source.Sockets, ls.Source.Threads)
		fmt.Fprintf(w, "load throughput:    %s keys/s, %.0f MB/s\n",
			rate(ls.Records, ls.Elapsed), float64(ls.Bytes)/1e6/ls.Elapsed.Seconds())
		if walDir != "" {
			fmt.Fprintf(w, "wal replay:         %d records (%d torn bytes discarded)\n",
				ls.WALReplayed, ls.WALDiscardedBytes)
		}
	}
	return nil
}

// fillStore batch-inserts keys [0, n) from one goroutine per pinned thread,
// each leasing its own stripe. With barrier set (a WAL trial), every batch is
// acknowledged with Store.Barrier — concurrent workers hitting the barrier
// together is what makes group commit's batching visible in the counters.
func fillStore(st *layeredsg.Store[int64, int64], n int64, workers int, barrier bool) error {
	const batch = 8192
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	per := (n + int64(workers) - 1) / int64(workers)
	for wkr := 0; wkr < workers; wkr++ {
		lo, hi := int64(wkr)*per, min(int64(wkr+1)*per, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			keys := make([]int64, 0, batch)
			vals := make([]int64, 0, batch)
			for k := lo; k < hi; k++ {
				keys = append(keys, k)
				vals = append(vals, k*3)
				if len(keys) == batch || k == hi-1 {
					st.InsertBatch(keys, vals) //nolint:errcheck // fill path
					keys, vals = keys[:0], vals[:0]
					if barrier {
						if err := st.Barrier(); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func rate(records uint64, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	r := float64(records) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.0fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
