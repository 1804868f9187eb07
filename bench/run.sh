#!/usr/bin/env bash
# Builds the benchmark once and runs it, from the root of a checkout.
#
#   bash bench/run.sh                       the whole suite, one workload after another
#   bash bench/run.sh -aa | -suite -record | -suite -compare
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes stays inside the checkout: the Go build cache and the
# binary under .bench_build/, temp data under .bench_build/tmp/ (always the
# same filesystem, so fsync costs the same on every run), trace files and
# aa.json under bench/results/. Workloads never run in parallel.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (no go.mod, no internal/)" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
# The harness pins these itself (runtime.GOMAXPROCS, debug.SetGCPercent);
# exporting them keeps the build and any child process on the same settings.
nproc="$(getconf _NPROCESSORS_ONLN)"
export GOMAXPROCS="$((nproc < 2 ? nproc : 2))" GOGC=100

go build -C bench -o "$build/bench" .

if [ "$#" -eq 0 ]; then
	commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	echo "# nproc=$nproc $(go version) commit=$commit"
	set -- -suite
fi
exec "$build/bench" "$@"
