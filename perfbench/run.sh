#!/usr/bin/env bash
# Builds the Store benchmark from this checkout's sources and runs one
# workload from the checkout's root:
#
#   bash perfbench/run.sh --workload point --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, span files, result records and the
# WAL/dump data of a run all stay under .bench_build/perfbench.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/store.go" ]]; then
	echo "perfbench: no layeredsg sources in $root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
if [[ -d "$root/.git" ]]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	export PERFBENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
