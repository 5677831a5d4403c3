GO ?= go

.PHONY: build test test-race race-loop vet fmt-check doc-lint fuzz-short scenarios scenarios-short bench bench-delta bench-e2e experiments example-recovery check all

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

# 200 race-detector runs each of TestConcurrentWorkstationsOverTCP, which
# used to die about one run in 12 on a phantom deadlock report (a waiter
# counted the requests queued behind it), and TestConcurrentCheckinsSameDA.
# CI runs a 50-run loop of the same two; count failures here with
# `make race-loop 2>&1 | grep -c -- '--- FAIL'`. It also runs 50 race-detector
# runs of TestReadersSurviveRebase: readers of cold versions racing the
# rebases that close and delete the files they read from, 50 of a follower
# checkpointing while shipped batches are appended and applied, and 50 of the
# transport tests whose handlers run on a connection's reused workers.
race-loop:
	$(GO) test -race -count=200 -run 'TestConcurrentWorkstationsOverTCP$$|TestConcurrentCheckinsSameDA$$' ./internal/txn/
	$(GO) test -race -count=50 -run 'TestReadersSurviveRebase$$' ./internal/repo/
	$(GO) test -race -count=50 -run 'TestFollowerCheckpointRacesApplyShipped$$' ./internal/repo/
	$(GO) test -race -count=50 -run 'TestTCPPipelinedInterleave$$|TestTCPSharedConnBudgetRace$$|TestTCPWorkersReused$$|TestTCPIdleWorkersBounded$$' ./internal/rpc/

# Fuzz smoke: run each fuzz target for 10s (the committed seed corpora run
# as plain tests under `make test` too).
fuzz-short:
	$(GO) test -fuzz=FuzzDeltaApply -fuzztime=10s -run XXX ./internal/binenc
	$(GO) test -fuzz=FuzzWALFrameDecode -fuzztime=10s -run XXX ./internal/wal
	$(GO) test -fuzz=FuzzSnapshotDecode -fuzztime=10s -run XXX ./internal/repo
	$(GO) test -fuzz=FuzzReplFrameDecode -fuzztime=10s -run XXX ./internal/repl
	$(GO) test -fuzz=FuzzClientRecordDecode -fuzztime=10s -run XXX ./internal/txn
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=10s -run XXX ./internal/txn
	$(GO) test -fuzz=FuzzCacheLogDecode -fuzztime=10s -run XXX ./internal/txn
	$(GO) test -fuzz=FuzzEnvelopeDecode -fuzztime=10s -run XXX ./internal/rpc
	$(GO) test -fuzz=FuzzTCPFrameDecode -fuzztime=10s -run XXX ./internal/rpc

# Short scenario matrix (the CI gate): every fault class once, full oracle
# suite, fault-point coverage written to out/SCENARIO_COVERAGE.txt. A point
# that never fired fails the target; the repl: points are exempt until the
# matrix has entries that fire them.
scenarios-short:
	SCENARIO_COVERAGE_OUT=$(CURDIR)/out/SCENARIO_COVERAGE.txt \
		$(GO) test ./internal/scenario -count=1 -v -run TestScenarioMatrixShort
	@awk -F'\t' 'NR > 1 && $$1 !~ /^repl:/ && $$3 == 0 { print "fault point never fired: " $$1; bad = 1 } END { exit bad }' \
		out/SCENARIO_COVERAGE.txt

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
# encoding/gob in any file of the module beyond the gobImporters list.
doc-lint:
	$(GO) test . -run 'TestEveryPackageHasDocComment|TestLayerStatedInLevelPackages|TestExportedIdentifiersAreDocumented|TestSingleServerAssembly|TestTxnDoesNotImportGob' -count=1

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# All benchmark suites (root package, E1-E12 included, plus wal/repo and the
# rest of internal/); -run XXX skips the unit tests.
bench:
	$(GO) test -bench . -benchtime 1s -run XXX ./...

# Delta matcher micro-benchmarks (checkout miss, 1 % edits) with allocation
# counts, then the server-TM's answer to a 64 KiB checkout miss offered an
# unrelated base and a 1 % relative; BENCHTIME=50x is the CI smoke setting.
BENCHTIME ?= 1s
bench-delta:
	$(GO) test -run '^$$' -bench 'BenchmarkDelta(Miss64K|Edit16K|Edit64K)$$' -benchtime $(BENCHTIME) ./internal/binenc
	$(GO) test -run '^$$' -bench 'BenchmarkServerCheckoutMiss64K$$' -benchtime $(BENCHTIME) ./internal/txn

# The designer-visible benchmark of BENCHMARK.json: all four workloads over
# a real concordd (bench/README.md; pass arguments with ARGS="--trace 1").
bench-e2e:
	bash bench/run.sh $(ARGS)

# Regenerate every experiment table (E1-E12); EXPERIMENTS.md records the
# paper-vs-measured outcomes and the pinned figures of E13-E16 and E18-E20.
experiments:
	$(GO) run ./cmd/concordbench

# Run the live restart choreography (CI runs this on every push so the
# checkpointed recovery path stays exercised end-to-end).
example-recovery:
	$(GO) run ./examples/recovery

check: fmt-check vet doc-lint test fuzz-short
