#!/bin/sh
# check.sh — the repo's fast verification gate.
#
# Runs vet over everything, dfvet (the eBPF static checker) over every
# shipped hook program, the race detector over the whole tree, and the
# self-monitoring instrumentation-overhead guard, which asserts the
# instrumented hook path stays within 5% of the uninstrumented baseline
# (needs a reasonably quiet machine).
set -eu
cd "$(dirname "$0")/.."

echo ">> gofmt (no drift anywhere in the tree)"
fmt_drift=$(gofmt -l .)
if [ -n "$fmt_drift" ]; then
    echo "gofmt drift in:" >&2
    echo "$fmt_drift" >&2
    exit 1
fi

echo ">> go vet ./..."
go vet ./...

echo ">> the pipeline benchmark's own tests (bench/ is a module of its own; the root's go test only checks that it builds and vets)"
(cd bench && go test ./...)

echo ">> dfvet (verify all shipped hook programs)"
go run ./cmd/dfvet

echo ">> dflint (invariant linter: determinism/lockcheck/metricnames/stickyerr; budgeted suppressions)"
go run ./cmd/dflint ./...

echo ">> dflint -json self-report (writes LINT_dflint.json; findings-by-analyzer, diffable)"
go run ./cmd/dflint -json ./... > LINT_dflint.json
cat LINT_dflint.json

echo ">> go test -race ./..."
go test -race ./...

echo ">> instrumentation-overhead guard (<5% on the hook path)"
DF_GUARD=1 go test -run TestHookInstrumentationGuard -count=1 ./internal/agent

echo ">> profiling-overhead guard (99 Hz sampling <3% RPS on the Fig. 19 Nginx workload)"
DF_GUARD=1 go test -run TestProfilingOverheadGuard -count=1 ./internal/profiling

echo ">> ingest-scaling guard (4-shard batched ingest >=1.5x 1-shard rows/s; skips below 4 CPUs)"
DF_GUARD=1 go test -run 'TestIngestScalingGuard|TestIngestCorrectness' -count=1 ./internal/experiments

echo ">> dfbench ingest (writes BENCH_ingest.json)"
go run ./cmd/dfbench ingest

echo ">> rollup-equivalence gate (ServiceSummaryFast == raw scan on Bookinfo, shard-count invisible)"
go test -run TestRollupEquivalenceGate -count=1 ./internal/experiments

echo ">> dfbench rollup (writes BENCH_rollup.json; rollup >=5x raw scan at 10^6 spans)"
go run ./cmd/dfbench rollup

echo ">> detection-quality gate (every fault scenario fires exactly the expected class+suspect; healthy stays silent)"
go test -run TestAlertingQualityGate -count=1 ./internal/experiments

echo ">> dfbench alerting (writes BENCH_alerting.json)"
go run ./cmd/dfbench alerting

echo ">> breakdown-exactness gate (every Bookinfo trace's segments sum to root wall time; shard-count invisible)"
go test -run TestBreakdownExactnessGate -count=1 ./internal/experiments

echo ">> dfbench critpath (writes BENCH_critpath.json)"
go run ./cmd/dfbench critpath

echo ">> durable-storage gates (kill-and-replay determinism at 1 and 4 shards; clean shutdown replays zero WAL; TTL cascade keeps rollups exact)"
go test -run 'TestDurableKillReplayDeterminism|TestDurableCleanShutdownZeroReplay|TestRetentionCascade' -count=1 ./internal/server
go test -run 'TestStorageCorrectness|TestStorageServerKillReplay' -count=1 ./internal/experiments

echo ">> dfbench storage (writes BENCH_storage.json; bytes/span per sealed encoding, cold-start replay rates, seal/decode/merge ns and allocs per span)"
go run ./cmd/dfbench storage

echo ">> block codec benchmarks; gate: compaction's merge allocates <= 0.05 objects per input span (a count, so it repeats; the timings are printed, not gated)"
go test -run '^$' -bench 'Benchmark(Seal|Decode|Merge)Block' -benchmem -benchtime 20x ./internal/dstore | awk '
    { print }
    /^BenchmarkMergeBlocks/ { for (i = 2; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1); seen = 1 }
    END {
        budget = 0.05 * 4 * 4096 # fan-in 4 blocks of SealSpans 4096
        if (!seen || allocs > budget) { printf "merge allocations %s/op over budget %.0f (or benchmark missing)\n", allocs, budget; exit 1 }
        printf "merge allocations %d/op within budget %.0f\n", allocs, budget
    }'

echo ">> fuzz the sealed-block boundary (10 s per target: arbitrary bodies under a valid CRC never panic, decode => re-encode identical, decodable pairs merge to the re-encode)"
go test -run '^$' -fuzz '^FuzzUnmarshalBlock$' -fuzztime 10s -fuzzminimizetime 20x ./internal/dstore
go test -run '^$' -fuzz '^FuzzMergeBlocks$' -fuzztime 10s -fuzzminimizetime 20x ./internal/dstore

echo ">> fuzz the untrusted-payload boundary (10 s: no codec Parse or inference panics on arbitrary bytes; parsing is deterministic)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 20x ./internal/protocols

echo "check.sh: all green"
