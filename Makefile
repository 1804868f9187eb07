GO ?= go

.PHONY: build test vet check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet runs Go's own static analysis, dfvet (the repo's eBPF verifier CLI)
# over every hook program the agent ships, and dflint (the invariant
# linter) over the whole tree: determinism, lockcheck, metricnames, and
# stickyerr, budgeted by .dflint-budget.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/dfvet
	$(GO) run ./cmd/dflint ./...

# check runs vet + dfvet, the race detector over the whole tree, and the
# self-monitoring overhead guard (see scripts/check.sh).
check:
	sh scripts/check.sh

# bench runs the standing pipeline benchmark (bench/ is a module of its
# own; see bench/README.md and BENCHMARK.json).
bench:
	bash bench/run.sh
