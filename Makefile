GO ?= go

.PHONY: build test test-race race-loop vet fmt-check doc-lint fuzz-short scenarios scenarios-short e14-short e15-short e16-short e18-short e19-short e20-short bench bench-delta bench-e2e bench-json experiments example-recovery check all

all: check

build:
	$(GO) build ./...

# Package tests. The rpc/txn/core/server/scenario binaries run under the
# internal/leakcheck TestMain guard: any heartbeat, lease-reaper, notifier,
# or transport goroutine still alive after the tests fails the package.
test:
	$(GO) test ./...

# Race-detector pass over every package — the same command CI runs.
test-race:
	$(GO) test -race ./...

# Reproduces the intermittent lock-manager deadlock report of
# TestConcurrentWorkstationsOverTCP (ROADMAP 4b): 200 race-detector runs.
# Not part of CI; count the failures with `make race-loop 2>&1 | grep -c -- '--- FAIL'`.
race-loop:
	$(GO) test -race -count=200 -run TestConcurrentWorkstationsOverTCP ./...

# Fuzz smoke: run each fuzz target for 10s (the committed seed corpora run
# as plain tests under `make test` too).
fuzz-short:
	$(GO) test -fuzz=FuzzDeltaApply -fuzztime=10s -run XXX ./internal/binenc
	$(GO) test -fuzz=FuzzWALFrameDecode -fuzztime=10s -run XXX ./internal/wal
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=10s -run XXX ./internal/repo
	$(GO) test -fuzz=FuzzReplFrameDecode -fuzztime=10s -run XXX ./internal/repl
	$(GO) test -fuzz=FuzzClientRecordDecode -fuzztime=10s -run XXX ./internal/txn
	$(GO) test -fuzz=FuzzEnvelopeDecode -fuzztime=10s -run XXX ./internal/rpc

# Short scenario matrix (the CI gate): every fault class once, full oracle
# suite, fault-point coverage written to out/SCENARIO_COVERAGE.txt.
scenarios-short:
	SCENARIO_COVERAGE_OUT=$(CURDIR)/out/SCENARIO_COVERAGE.txt \
		$(GO) test ./internal/scenario -count=1 -v -run TestScenarioMatrixShort

# Long scenario matrix: every checkpoint-protocol point under racing
# checkpoints, every 2PC point over both transports, multi-seed mixed chaos
# and the 8-workstation scale-out.
scenarios:
	CONCORD_SCENARIOS_LONG=1 SCENARIO_COVERAGE_OUT=$(CURDIR)/out/SCENARIO_COVERAGE.txt \
		$(GO) test ./internal/scenario -count=1 -v -timeout 30m

vet:
	$(GO) vet ./...

# Doc-comment lint (dependency-free equivalent of revive's exported-comment
# rule, doclint_test.go): package docs everywhere, doc comments on every
# exported identifier, CONCORD-layer statements in the level packages — plus
# the architecture lints: one server assembly, in internal/server, and no
# encoding/gob in internal/txn.
doc-lint:
	$(GO) test . -run 'TestEveryPackageHasDocComment|TestLayerStatedInLevelPackages|TestExportedIdentifiersAreDocumented|TestSingleServerAssembly|TestTxnDoesNotImportGob' -count=1

# E14 acceptance bounds (NotModified = O(hash) bytes, delta >= 5x smaller
# than full) in short mode — one mid-size configuration.
e14-short:
	$(GO) test ./internal/experiments -run TestE14CacheDeltaBounds -count=1 -v

# E15 acceptance bounds (MVCC read path: >=1.3x CI throughput floor, >=50%
# fewer allocs/op vs the locked+clone baseline) in short mode.
e15-short:
	$(GO) test ./internal/experiments -run TestE15ReadScalingBounds -count=1 -v

# E16 acceptance bounds (sharded write path: >=2x aggregate checkin
# throughput at 8 writer DAs vs the SerializedWrites baseline; pipelined
# replay beats serial replay on a 64k-op history) in short mode.
e16-short:
	$(GO) test ./internal/experiments -run TestE16WriteScalingBounds -count=1 -v -timeout 20m

# E18 acceptance bounds (multiplexed wire protocol: >=2x aggregate e2e
# checkout throughput at 8 workstations over real sockets vs the
# connect-per-call baseline) in short mode.
e18-short:
	$(GO) test ./internal/experiments -run TestE18WireBounds -count=1 -v

# E19 acceptance bounds (non-quiescent checkpointing: p99 checkin latency
# while checkpoints loop stays within 1.5x of steady state) in short mode.
e19-short:
	$(GO) test ./internal/experiments -run TestE19CheckpointLatencyBounds -count=1 -v

# E20 acceptance bounds (warm-standby replication: sync-replicated checkin
# p99 within 1.5x of unreplicated; client-driven takeover after a primary
# kill within 2x the heartbeat period) in short mode.
e20-short:
	$(GO) test ./internal/experiments -run 'TestE20ReplicationLatencyBounds|TestE20FailoverTakeoverBound' -count=1 -v

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# All benchmark suites (root package plus wal/repo/experiments and the rest
# of internal/); -run XXX skips the unit tests.
bench:
	$(GO) test -bench . -benchtime 1s -run XXX ./...

# Delta matcher micro-benchmarks (checkout miss, 1 % edits) with allocation
# counts; BENCHTIME=50x is the CI smoke setting.
BENCHTIME ?= 1s
bench-delta:
	$(GO) test -run '^$$' -bench 'BenchmarkDelta(Miss64K|Edit16K|Edit64K)$$' -benchtime $(BENCHTIME) ./internal/binenc

# The designer-visible benchmark of BENCHMARK.json: all four workloads over
# a real concordd (bench/README.md; pass arguments with ARGS="--trace 1").
bench-e2e:
	bash bench/run.sh $(ARGS)

# Machine-readable perf record: re-run E15, E16, E18, E19 and E20 and refresh
# the committed BENCH_*.json files (CI uploads them as artifacts on every
# push).
bench-json:
	$(GO) run ./cmd/concordbench -json out/BENCH_E15.json E15
	$(GO) run ./cmd/concordbench -json out/BENCH_E16.json E16
	$(GO) run ./cmd/concordbench -json out/BENCH_E18.json E18
	$(GO) run ./cmd/concordbench -json out/BENCH_E19.json E19
	$(GO) run ./cmd/concordbench -json out/BENCH_E20.json E20

# Regenerate every experiment table (E1-E16, E18-E20); EXPERIMENTS.md records
# the paper-vs-measured outcomes.
experiments:
	$(GO) run ./cmd/concordbench

# Run the live restart choreography (CI runs this on every push so the
# checkpointed recovery path stays exercised end-to-end).
example-recovery:
	$(GO) run ./examples/recovery

check: fmt-check vet doc-lint test fuzz-short
