# Tier-1 gate: everything `make check` runs must stay green on every
# change (see ROADMAP.md). No external dependencies — Go toolchain only.

GO ?= go

# Per-claim anneal-read budget for the validation gate; CI passes a
# tighter cap than the local default so the leg stays inside its slot.
VALIDATE_MAX_READS ?= 30000

.PHONY: check vet build test race fuzz-smoke slo perfbench fmt validate update-golden cover

check: vet build test race fuzz-smoke slo perfbench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# One race-enabled, uncached pass over every package: it covers the
# fleet, C-RAN, heterogeneous-backend and ensemble determinism batteries
# that used to be re-run as separate subsets.
race:
	$(GO) test -race -count=1 ./...

# Run every fuzz target's seed corpus (no open-ended fuzzing): catches
# regressions on the known-interesting inputs in CI time.
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/...

# SLO monitoring gate: the uncached monitor/alerting/health suite (this
# battery pins the no-perturbation and live==offline determinism
# contracts) plus a slotool smoke run over the committed trace fixture.
slo:
	$(GO) test -count=1 ./internal/slo/
	$(GO) run ./cmd/slotool -trace internal/slo/testdata/trace_small.jsonl -quiet > /dev/null

# perfbench/ is its own module (it replaces repro with ../), so the root
# `go build ./...` never compiles it: vet and test it here so an annealer
# or fleet API change that breaks the benchmark fails `make check`.
perfbench:
	cd perfbench && GOPROXY=off $(GO) vet ./... && GOPROXY=off $(GO) test ./...

fmt:
	gofmt -l .

# Statistical gate: every paper claim must clear its bootstrap-CI gate
# and every figure metric must stay inside its golden baseline. Exits
# non-zero on any failed/inconclusive claim or drifted metric; the drift
# report lands in drift-report.json for artifact upload.
validate:
	$(GO) run ./cmd/experiments -validate -check-golden \
		-validate-max-reads $(VALIDATE_MAX_READS) -drift-report drift-report.json

# Explicit re-baselining after an intentional model change — review the
# results/golden/ diff before committing.
update-golden:
	$(GO) run ./cmd/experiments -update-golden

# Ratcheted per-package coverage floors (see scripts/check_coverage.sh).
cover:
	./scripts/check_coverage.sh
