#!/usr/bin/env bash
# Builds the pathmark daemon and the benchmark harness from source, then
# runs the harness with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload recognize --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --spread --runs 10
#
# Build outputs, the Go build cache and per-run job roots stay under
# .bench_build/ in the repository root (or $CARGO_TARGET_DIR when set).
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pathmark || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/pathmark and perfbench/ are needed)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$out/pathmark" ./cmd/pathmark
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -pathmark "$out/pathmark" -workdir "$out" "$@"
