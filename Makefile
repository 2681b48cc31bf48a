GO ?= go

.PHONY: build test race dse-stress bench bench-json bench-gate vet heraldvet smoke chaos replay doclint staticcheck vulncheck

build:
	$(GO) build ./...

# vet is the tier-1 static gate: gofmt (any unformatted file fails),
# the stock toolchain vet, and heraldvet, the repo's own analyzer
# suite (determinism, lock discipline, JSON zero-value contracts — see
# internal/analysis).
GOFMT ?= gofmt
vet:
	@unformatted=$$($(GOFMT) -l $$(find . -name '*.go' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(MAKE) heraldvet

# heraldvet runs the four repo-specific analyzers (detmap, wallclock,
# lockguard, jsonzero) over the whole module. Dependency-free: built
# on the standard library only, so it runs offline.
heraldvet:
	$(GO) run ./cmd/heraldvet ./...

test:
	$(GO) test ./...

# race runs the concurrency-sensitive packages under the race detector
# (the sharded cost cache, the scheduler, the DSE worker pool, the
# serving engine, the fleet dispatcher).
race:
	$(GO) test -race ./internal/maestro ./internal/sched ./internal/dse ./internal/serve ./internal/fleet

# dse-stress reruns the pruned-search equivalence suite 50 times at 1,
# 2, 4 and 8 procs: the Random strategy samples with replacement, and a
# duplicate sample's design-point name must not depend on which sweep
# worker reaches it first.
dse-stress:
	$(GO) test ./internal/dse -run TestPrunedSearchEquivalence -count=50 -cpu 1,2,4,8

# smoke builds and runs the end-to-end examples that exercise the
# serving stack (fast, deterministic; CI runs this per PR): fleet
# dispatch, the repartitioning controller's live migration, and
# layer-fused segment serving.
smoke:
	$(GO) run ./examples/fleet
	$(GO) run ./examples/repartition
	$(GO) run ./examples/segments
	$(MAKE) chaos
	$(MAKE) replay

# chaos drives a replicated fleet through a seeded fault schedule
# (stall, admission-failure burst, crash with queued requests,
# recovery) and exits non-zero unless conservation holds, survivor p99
# stays bounded, and the fault-handling decision log replays
# bit-identically. CI gates on it per PR.
chaos:
	$(GO) run ./examples/chaos

# replay drills the committed adversarial-scenario corpus
# (testdata/scenarios) through the deterministic replay harness: the
# corpus must regenerate byte-identically, every replay (fault-free,
# faulted, repartitioning) must render byte-identical digests twice
# with conservation intact, and the steady tenant's p99 must stay
# inside a bounded envelope of the smooth control. Non-zero exit on
# any violation; CI gates on it per PR.
replay:
	$(GO) run ./examples/replay

# staticcheck / vulncheck fetch their tools at run time (CI has
# network; local offline runs can skip them — make vet covers the
# tier-1 gate). Both versions are pinned so a tool release cannot
# change what CI enforces mid-flight.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

# doclint fails on broken intra-repo markdown links (file + anchor)
# and on exported identifiers in the serving-tier packages missing
# doc comments. CI runs this per PR.
doclint:
	$(GO) run ./cmd/doclint -md . -pkgs internal/fleet,internal/serve,internal/dse,internal/sched,internal/analysis,internal/capture,internal/scenario,internal/replay,cmd/heraldplay,cmd/internal/cli

# bench runs the full benchmark suite once per benchmark (short form:
# the perf trajectory gate wants per-PR numbers, not nanosecond-grade
# stability) and writes the machine-readable $(BENCH_OUT).
BENCH_OUT ?= BENCH_PR6.json
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . | tee bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out

# bench-gate fails on >25% ns/op regressions of the DSE / figure-sweep
# benchmarks against the previous PR's committed baseline. Only the
# sweep-scale benchmarks (tens of ms and up) are gated: single-
# iteration runs of the microsecond-scale figure artifacts swing well
# past any sane threshold on machine noise alone.
BENCH_BASE ?= BENCH_PR4.json
bench-gate:
	$(GO) run ./cmd/benchgate -old $(BENCH_BASE) -new $(BENCH_OUT) \
		-match 'BenchmarkDSE|BenchmarkFigure6|BenchmarkFigure11|BenchmarkFigure13|BenchmarkResweep|BenchmarkFusedServing|BenchmarkReplayThroughput|BenchmarkElasticReassign' -max-pct 25
