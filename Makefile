# Tier-1 verification plus the repo's standard hygiene passes.
#
#   make          — the full CI sequence (fmt, build, test, vet, race)
#   make fmt      — fail when gofmt -l lists any file (the CI format gate)
#   make race     — short-mode race pass over the confinement-sensitive
#                   packages: internal/core (handle migration contract),
#                   the root package (Store facade leasing), and
#                   internal/sbench (oversubscribed trials); plus the node
#                   arena's CAS paths: internal/atomicmark, internal/node,
#                   the internal/direct and internal/competitors baselines,
#                   and the root tests that -short skips: the full
#                   TestTorture run over every algorithm (including the skip
#                   list, whose arena is taller than the inline level
#                   words), TestTorturePackedRefs, TestTortureWithReaders
#                   (writers beside ReaderHandles and PublishJumpIndex) and
#                   TestAlgorithmsTrialSmoke
#   make race-reclaim — race pass over the reclamation/snapshot surface:
#                   internal/epoch, the skip graph's reclamation walk,
#                   internal/core's pass tests, the slot-recycle ABA test,
#                   and the root scenarios: the drift plateau, passes beside
#                   open snapshots, the small-scale plateau, search-time
#                   retirement reaching the limbo, scheduled
#                   linearizability and the torture mix beside a goroutine
#                   forcing passes, the Store's Close contract, and the
#                   FuzzSnapshotOps seed corpus
#   make race-index — race pass over the shared hash index surface:
#                   internal/hindex, internal/core's lossy-index test
#                   (descents after forced index misses), the root
#                   cross-handle, stale-generation, and index×reclaim
#                   torture scenarios, and the FuzzIndexOps seed corpus
#   make race-persist — race pass over the persistence surface:
#                   internal/persist plus the root dump/load scenarios that
#                   run writers against in-flight dumps (snapshot isolation,
#                   Close-during-dump, WAL recovery, the persist torture run),
#                   the dump file's publish (a stray temporary, a failed
#                   dump, a directory holding only a retired shard set),
#                   the load's dealing of keys over every stripe, and the
#                   FuzzDumpLoad seed corpus
#   make race-wal — race pass over the WAL durability surface: the sync-policy
#                   and group-commit scenarios, the process-kill crash matrix,
#                   the FuzzWALSync seed corpus, and the root Barrier/Err
#                   scenarios driving concurrent acknowledgers
#   make bench    — the Store-overhead benchmark pair (see EXPERIMENTS.md)
#   make bench-reclaim — the reclamation benchmarks: slot-churn turnover
#                   and revival with forced reclamation passes, snapshot
#                   acquire, and consistent (lazy) vs weak (non-lazy)
#                   RangeScan (see EXPERIMENTS.md)
#   make bench-persist — the persistence trial: fill PERSISTKEYS keys,
#                   StoreToDisk, LoadFromDisk round trip via sgbench,
#                   reporting keys/s and MB/s each way (see EXPERIMENTS.md)
#   make bench-wal — the WAL durability benchmarks: append and commit cost
#                   per sync policy (never/group: what Barrier, the only
#                   acknowledgment, promises), plus an sgbench fill sweep
#                   with per-batch Barrier acknowledgment showing the
#                   group-commit batching counters (EXPERIMENTS.md)
#   make perfbench-test — vet and test the nested perfbench module (outside
#                   the root module's ./...): the oracle fault-injection
#                   self-test, a tiny smoke run of every workload, and the
#                   BENCHMARK.json consistency test
#   make fuzz-smoke — 30s of coverage-guided fuzzing per fuzz target (the
#                   go tool accepts one -fuzz pattern per run, hence one
#                   invocation each); seed-corpus replay is part of plain `test`

GO ?= go
FUZZTIME ?= 30s
PERSISTKEYS ?= 2000000
PERSISTDIR ?= /tmp/layeredsg-persist
WALKEYS ?= 500000

.PHONY: ci build test vet race race-reclaim race-index race-persist race-wal perfbench-test bench bench-reclaim bench-persist bench-wal fuzz-smoke fmt

ci: fmt build test vet race race-reclaim race-index race-persist race-wal perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -short ./internal/core ./internal/sbench .
	$(GO) test -race ./internal/atomicmark ./internal/node ./internal/direct ./internal/competitors
	$(GO) test -race -run '^(TestTorture|TestTorturePackedRefs|TestTortureWithReaders|TestAlgorithmsTrialSmoke)$$' .

race-reclaim:
	$(GO) test -race ./internal/epoch
	$(GO) test -race -run 'TestArenaRecycleABA' ./internal/node
	$(GO) test -race -run 'TestRetiredBehindSameKey|TestWalkReadsNodeRetiredMidWalk' ./internal/skipgraph
	$(GO) test -race -run 'Reclaim' ./internal/core
	$(GO) test -race -run 'TestReclaim|TestSnapshot|TestInlineRetireReachesLimbo|BackgroundMaint|TestStoreClose|FuzzSnapshotOps' .

race-index:
	$(GO) test -race ./internal/hindex
	$(GO) test -race -run 'TestLossyIndex' ./internal/core
	$(GO) test -race -run 'TestIndex|TestTortureIndexReclaim|FuzzIndexOps' .

race-persist:
	$(GO) test -race ./internal/persist
	$(GO) test -race -run 'TestTorturePersist|TestDumpSnapshotIsolation|TestCloseDuringDump|TestWAL|TestStoreDumpLoadRoundTrip|TestDumpPublish|TestLoadOldShardSet|TestLoadDealsEveryStripe|FuzzDumpLoad' .

race-wal:
	$(GO) test -race -run 'TestWAL|TestSyncPolicy|FuzzWALSync' ./internal/persist
	$(GO) test -race -run 'TestStoreBarrier|TestStoreErr|TestStoreWALSync' .

perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run '^$$' -bench 'Store' -benchtime 3x .

bench-reclaim:
	$(GO) test -run '^$$' -bench 'Reclaim/(turnover|revive)' -benchmem -benchtime 200000x .
	$(GO) test -run '^$$' -bench 'Reclaim/(snapshot|rangescan)' -benchtime 10000x .

bench-persist:
	rm -rf $(PERSISTDIR)
	$(GO) run ./cmd/sgbench -dump $(PERSISTDIR) -load $(PERSISTDIR) -keyspace $(PERSISTKEYS) -threads 16

bench-wal:
	$(GO) test -run '^$$' -bench 'WAL(Append|Commit)' -benchtime 20000x ./internal/persist
	for pol in never group; do \
		rm -rf $(PERSISTDIR)-wal; \
		$(GO) run ./cmd/sgbench -dump $(PERSISTDIR)-wal/d -wal $(PERSISTDIR)-wal/w -wal-sync $$pol -keyspace $(WALKEYS) -threads 16 | grep -E 'fill|wal sync'; \
	done

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSkipGraphOps$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOps$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzRefRepresentations$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotOps$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzIndexOps$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzDumpLoad$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWALSync$$' -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz '^FuzzLocalStructure$$' -fuzztime $(FUZZTIME) ./internal/local

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi
