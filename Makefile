#!/usr/bin/make -f

########################################
### Simulations & CI targets
#
# The simulation campaign is cached in a content-addressed run store
# (internal/runstore); point RUNSTORE elsewhere to isolate runs, or
# delete the directory to force a cold campaign. Modeled on the
# multi-seed/cached-run sims.mk discipline of cosmos-sdk chains.

RUNSTORE ?= $(CURDIR)/.runstore

# µop counts: BENCH_OPS feeds the shared benchmark campaign through
# REPRO_BENCH_OPS (default in bench_test.go is the paper-faithful 1.2M);
# SMOKE_OPS keeps store-identity short (the smoke checks below are Go
# tests with their own size, 20000 µops).
BENCH_OPS ?= 120000
SMOKE_OPS ?= 60000

all: lint test

build:
	@echo "Building all packages..."
	@go build ./...

test:
	@echo "Running unit tests..."
	@go test ./...

test-short:
	@echo "Running short unit tests (skips full campaigns)..."
	@go test -short ./...

race:
	@echo "Running unit tests under the race detector..."
	@go test -race ./...

# The offline-safe checks; CI additionally runs `make staticcheck`,
# which needs the module proxy to fetch the pinned tool.
lint:
	@echo "Checking gofmt..."
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@echo "Running go vet..."
	@go vet ./...

# Pinned so CI runs stay reproducible; bump deliberately.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1

staticcheck:
	@echo "Running staticcheck ($(STATICCHECK))..."
	@go run $(STATICCHECK) ./...

bench-smoke:
	@echo "Running benchmark smoke (ops=$(BENCH_OPS)) against the run store at $(RUNSTORE)..."
	@REPRO_RUNSTORE=$(RUNSTORE) REPRO_BENCH_OPS=$(BENCH_OPS) \
		go test -run '^$$' -bench 'Fig2ModelAccuracy|SimulatorThroughput|SimulatorReplay|CacheHierarchy|BranchPredict|TraceGeneration|TraceReplay|TraceDecode|GridPlan|ModelPredict|TLBAccess|IQSchedule|SeedsParallel|StoreGetPut|ServePredict|Fit$$' \
		-benchtime 1x -benchmem .

# profile runs the simulator throughput benchmark under the CPU
# profiler and prints the top-N report (also written to
# .bin/profile.top, which CI uploads as an artifact). The test binary
# is kept next to the profile so `go tool pprof` resolves symbols
# offline; tune PROFILE_BENCH/PROFILE_TOP to profile something else.
PROFILE_BENCH ?= SimulatorThroughput
PROFILE_TOP ?= 25

profile:
	@mkdir -p $(CURDIR)/.bin
	@echo "Profiling $(PROFILE_BENCH) (ops=$(BENCH_OPS))..."
	@REPRO_RUNSTORE=off REPRO_BENCH_OPS=$(BENCH_OPS) \
		go test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime 5x -benchmem \
		-cpuprofile $(CURDIR)/.bin/profile.cpu -o $(CURDIR)/.bin/profile.test .
	@go tool pprof -top -nodecount=$(PROFILE_TOP) \
		$(CURDIR)/.bin/profile.test $(CURDIR)/.bin/profile.cpu \
		| tee $(CURDIR)/.bin/profile.top

# The committed benchmark baseline this PR's trajectory point lives in;
# regenerate with `make bench-baseline-update` after an intentional
# performance change.
BENCH_BASELINE ?= BENCH_12.json

# bench-baseline re-runs the benchmark smoke, converts the output into a
# machine-readable JSON snapshot (.bin/bench-current.json, uploaded as a
# CI artifact), and fails when SimulatorThroughput lost more than 20% of
# its Mops/s versus the committed baseline.
# Fig2ModelAccuracy's wall clock depends on the core count, because a
# fit spreads its starts over GOMAXPROCS: record its baseline as the
# median of several runs on the CI runner's core count.
# The bench run's own exit status is captured through the tee pipe
# (plain `cmd | tee` would report tee's status and mask a failed or
# panicking benchmark), so the gate never judges partial output.
bench-baseline:
	@mkdir -p $(CURDIR)/.bin
	@{ $(MAKE) --no-print-directory bench-smoke; echo $$? > $(CURDIR)/.bin/bench.exit; } \
		| tee $(CURDIR)/.bin/bench.out; \
	[ "$$(cat $(CURDIR)/.bin/bench.exit)" = "0" ]
	@go run ./cmd/benchjson -in $(CURDIR)/.bin/bench.out -out $(CURDIR)/.bin/bench-current.json
	@echo "Gating SimulatorThroughput against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench SimulatorThroughput -metric Mops/s -max-regress 0.20
	@echo "Gating TraceReplay against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench TraceReplay -metric Mops/s -max-regress 0.20
	@echo "Gating GridPlan/replay against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench GridPlan/replay -metric Mops/s -max-regress 0.20
	@echo "Gating TLBAccess against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench TLBAccess -metric Mops/s -max-regress 0.30
	@echo "Gating IQSchedule against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench IQSchedule -metric Mops/s -max-regress 0.20
	@echo "Gating SeedsParallel wall clock against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench SeedsParallel -metric ns/op -max-regress 0.35 -lower-better
	@echo "Gating SimulatorThroughput allocs/op against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench SimulatorThroughput -metric allocs/op -max-regress 0 -lower-better
	@echo "Gating TLBAccess allocs/op against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench TLBAccess -metric allocs/op -max-regress 0 -lower-better
	@echo "Gating Fit allocs/op against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench Fit -metric allocs/op -max-regress 0 -lower-better
	@echo "Gating Fig2ModelAccuracy wall clock against $(BENCH_BASELINE)..."
	@go run ./cmd/benchjson -check -in $(CURDIR)/.bin/bench.out -baseline $(BENCH_BASELINE) \
		-bench Fig2ModelAccuracy -metric ns/op -max-regress 0.50 -lower-better

bench-baseline-update:
	@mkdir -p $(CURDIR)/.bin
	@{ $(MAKE) --no-print-directory bench-smoke; echo $$? > $(CURDIR)/.bin/bench.exit; } \
		| tee $(CURDIR)/.bin/bench.out; \
	[ "$$(cat $(CURDIR)/.bin/bench.exit)" = "0" ]
	@go run ./cmd/benchjson -in $(CURDIR)/.bin/bench.out -out $(BENCH_BASELINE)
	@echo "Baseline rewritten: $(BENCH_BASELINE)"

bench-full:
	@echo "Running the full paper benchmark campaign. This may take awhile!"
	@REPRO_RUNSTORE=$(RUNSTORE) go test -run '^$$' -bench . -benchtime 1x -benchmem .

# The smoke checks are Go tests that call each command's realMain in
# process on fresh temporary run stores at 20000 µops and 2 fit starts;
# go test ./... runs them too (they skip under -short, except the
# optimize and seeds tests). Each target runs one of them:
#
#   sim-smoke           fig2 cold, then warm at GOMAXPROCS=1 and nproc:
#                       pure store hits, the cold Figure 2 byte for byte
#   sweep-smoke         a 3-point rob sweep, cold then warm: pure hits
#   plan-smoke          a 2x2 rob x mshrs grid plan, cold then warm: pure
#                       hits, zero trace regenerations
#   optimize-smoke      the example optimize spec, likewise
#   seeds-smoke         the example 3-seed spec, likewise
#   trace-smoke         a one-cell plan over cpu2000 exported to .mtrc
#                       files ("file:DIR"), likewise: zero trace loads
#   sim-nondeterminism  the rob x mshrs and memlat x l2kb grid plans cold
#                       at GOMAXPROCS=1 and nproc: byte-identical plan
#                       JSON and run-store trees
#   serve-smoke         mecpid on a store filled the way cmd/experiments
#                       (fig2) and cmd/sweep (the rob sweep) fill it:
#                       predict, sweep and plan over HTTP dispatch no
#                       simulation
#   jobs-smoke          the same warm daemon runs the paper campaign as
#                       a job without simulating
#
# Every warm rerun runs at GOMAXPROCS=1 and at nproc, and the two
# outputs must be byte-identical.
sim-smoke:
	@go test -count=1 -run '^TestWarmFig2IsAllHits$$' ./cmd/experiments

sweep-smoke:
	@go test -count=1 -run '^TestWarmRerunIsAllHits$$/^sweep$$' ./cmd/sweep

plan-smoke:
	@go test -count=1 -run '^TestWarmRerunIsAllHits$$/^plan$$' ./cmd/sweep

sim-nondeterminism:
	@go test -count=1 -run '^TestPlanDeterministicAcrossGOMAXPROCS$$' ./cmd/sweep

optimize-smoke:
	@go test -count=1 -run '^TestRealMainOptimizeFile$$' ./cmd/sweep

seeds-smoke:
	@go test -count=1 -run '^TestRealMainSeedsFile$$' ./cmd/sweep

trace-smoke:
	@go test -count=1 -run '^TestWarmRerunIsAllHits$$/^trace$$' ./cmd/sweep

serve-smoke:
	@go test -count=1 -run '^TestWarmDaemonDispatchesNoSimulation$$/^serve$$' ./cmd/mecpid

jobs-smoke:
	@go test -count=1 -run '^TestWarmDaemonDispatchesNoSimulation$$/^jobs$$' ./cmd/mecpid

# store-identity checks that a simulator change left every stored
# Result byte for byte as it was: it fills one fresh run store from a
# checkout of PARENT (git archive, under .bin/) and another from the
# working tree — a rob x mshrs grid plan, a fig2 campaign, the memlat x
# l2kb grid plan of sim-nondeterminism and the example seeds sweep, all at
# SMOKE_OPS — and diffs the two stores. The plans and the campaign share
# every trace across machines; the one-machine seeds sweep shares none,
# so its runs cover the unshared path. The rob x mshrs grid runs first,
# on an empty store: its cell at the base's own values differs from the
# base only by name, so the two share one simulation, and both of their
# entries are diffed.
#
# It then reads each store with the other side: the working tree
# answers the fig2 campaign from a copy of the parent's store, and the
# parent from a copy of the working tree's. Both must be pure hits with
# the Figure 2 of the fills. A reader that rejects what the other side
# wrote would re-simulate to the same output, so only this check sees
# it.
#
#   make store-identity PARENT=HEAD~1
PARENT ?= HEAD~1

store-identity:
	@set -e; dir=$(CURDIR)/.bin/identity; rm -rf $$dir; mkdir -p $$dir/parent; \
	git archive $(PARENT) | tar -x -C $$dir/parent; \
	for side in parent head; do \
		src=$(CURDIR); [ $$side = head ] || src=$$dir/parent; \
		echo "Filling a run store from $$side (ops=$(SMOKE_OPS))..."; \
		(cd $$src && go run ./cmd/sweep -base core2 -param rob -values 48,96 -param mshrs -values 8,16 \
			-suite cpu2000 -ops $(SMOKE_OPS) -starts 2 -json -store $$dir/store-$$side >/dev/null && \
		go run ./cmd/experiments -run fig2 -ops $(SMOKE_OPS) -starts 2 \
			-store $$dir/store-$$side >$$dir/fig2-$$side.txt && \
		go run ./cmd/sweep -base core2 -param memlat -values 150,300 -param l2kb -values 2048,4096 \
			-suite cpu2000 -ops $(SMOKE_OPS) -starts 2 -json -store $$dir/store-$$side >/dev/null && \
		go run ./cmd/sweep -seeds examples/seeds/core2-seeds.json -ops $(SMOKE_OPS) -starts 2 -json \
			-store $$dir/store-$$side >/dev/null); \
	done; \
	echo "Comparing run stores..."; \
	diff -r $$dir/store-parent $$dir/store-head; \
	cmp $$dir/fig2-parent.txt $$dir/fig2-head.txt; \
	for side in parent head; do \
		src=$(CURDIR); other=parent; [ $$side = head ] || { src=$$dir/parent; other=head; }; \
		echo "Reading the $$other store from $$side..."; \
		cp -r $$dir/store-$$other $$dir/cross-$$side; \
		(cd $$src && go run ./cmd/experiments -run fig2 -ops $(SMOKE_OPS) -starts 2 \
			-store $$dir/cross-$$side >$$dir/fig2-cross-$$side.txt 2>$$dir/cross-$$side.err) \
			|| { cat $$dir/cross-$$side.err; exit 1; }; \
		grep "0 simulated (100.0% hit rate)" $$dir/cross-$$side.err; \
		cmp $$dir/fig2-head.txt $$dir/fig2-cross-$$side.txt; \
	done; \
	echo "store-identity: $$(find $$dir/store-head -name '*.json' | wc -l) entries byte-identical to $(PARENT), each side reads the other's"

# scale-smoke is sim-nondeterminism's wall-clock companion: the same
# 2x2 grid plan, but built with the race detector and run cold twice —
# once at GOMAXPROCS=1 and once with every core — each against a fresh
# store. Plan JSON and store artifacts must stay byte-identical, and on
# machines with at least 4 cores the parallel run must beat the serial
# one by >=1.5x wall clock: the gate that plan-cell parallelism doesn't
# quietly rot into serialized execution. SCALE_OPS is larger than
# SMOKE_OPS so per-cell work dominates process startup even under
# -race's slowdown.
SCALE_OPS ?= 120000

scale-smoke:
	@mkdir -p $(CURDIR)/.bin
	@rm -rf $(CURDIR)/.bin/scale-store-1 $(CURDIR)/.bin/scale-store-n
	@echo "Building cmd/sweep with the race detector..."
	@go build -race -o $(CURDIR)/.bin/sweep-race ./cmd/sweep
	@echo "Running a cold 2x2 grid plan at GOMAXPROCS=1 (ops=$(SCALE_OPS))..."
	@t0=$$(date +%s%N); \
	GOMAXPROCS=1 $(CURDIR)/.bin/sweep-race -base core2 -param rob -values 48,96 -param mshrs -values 4,8 \
		-suite cpu2000 -ops $(SCALE_OPS) -starts 2 -json \
		-store $(CURDIR)/.bin/scale-store-1 > $(CURDIR)/.bin/scale-plan-1.json; \
	echo $$(( $$(date +%s%N) - t0 )) > $(CURDIR)/.bin/scale-ns-1
	@echo "Running the same cold plan at GOMAXPROCS=$$(nproc)..."
	@t0=$$(date +%s%N); \
	GOMAXPROCS=$$(nproc) $(CURDIR)/.bin/sweep-race -base core2 -param rob -values 48,96 -param mshrs -values 4,8 \
		-suite cpu2000 -ops $(SCALE_OPS) -starts 2 -json \
		-store $(CURDIR)/.bin/scale-store-n > $(CURDIR)/.bin/scale-plan-n.json; \
	echo $$(( $$(date +%s%N) - t0 )) > $(CURDIR)/.bin/scale-ns-n
	@echo "Comparing plan JSON..."
	@cmp $(CURDIR)/.bin/scale-plan-1.json $(CURDIR)/.bin/scale-plan-n.json
	@echo "Comparing run-store artifacts..."
	@diff -r $(CURDIR)/.bin/scale-store-1 $(CURDIR)/.bin/scale-store-n
	@serial=$$(cat $(CURDIR)/.bin/scale-ns-1); par=$$(cat $(CURDIR)/.bin/scale-ns-n); \
	speedup=$$(awk "BEGIN { printf \"%.2f\", $$serial / $$par }"); \
	echo "scale-smoke: serial $$(( serial / 1000000 )) ms, parallel $$(( par / 1000000 )) ms, speedup $${speedup}x on $$(nproc) cores"; \
	if [ "$$(nproc)" -ge 4 ]; then \
		awk "BEGIN { exit !($$serial >= 1.5 * $$par) }" || \
			{ echo "scale-smoke: speedup $${speedup}x < 1.5x"; exit 1; }; \
	else \
		echo "scale-smoke: fewer than 4 cores, skipping the 1.5x wall-clock gate"; \
	fi

fuzz-smoke:
	@echo "Fuzzing campaign parsing for 20s..."
	@go test ./internal/experiments -run '^$$' -fuzz '^FuzzParseCampaign$$' -fuzztime 20s
	@echo "Fuzzing job-spec decoding and validation for 20s..."
	@go test ./internal/experiments -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime 20s
	@echo "Fuzzing run-store entry decoding and keys for 20s..."
	@go test ./internal/runstore -run '^$$' -fuzz '^FuzzStoreEnvelope$$' -fuzztime 20s
	@echo "Fuzzing the Result codec against encoding/json for 20s..."
	@go test ./internal/sim -run '^$$' -fuzz '^FuzzResultCodec$$' -fuzztime 20s
	@echo "Fuzzing the spec hash input against encoding/json for 20s..."
	@go test ./internal/trace -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime 20s
	@echo "Fuzzing .mtrc trace decoding for 20s..."
	@go test ./internal/trace -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s
	@echo "Fuzzing the response indenter against json.Indent for 20s..."
	@go test ./internal/serve -run '^$$' -fuzz '^FuzzIndentJSON$$' -fuzztime 20s
	@echo "Fuzzing the predict response writer against encoding/json for 20s..."
	@go test ./internal/serve -run '^$$' -fuzz '^FuzzPredictJSON$$' -fuzztime 20s
	@echo "Fuzzing timing-only machine variants (metamorphic) for 20s..."
	@go test ./internal/sim -run '^$$' -fuzz '^FuzzTimingOnlyMachine$$' -fuzztime 20s
	@echo "Fuzzing LRU inclusion (doubling the ways never adds misses) for 20s..."
	@go test ./internal/cache -run '^$$' -fuzz '^FuzzLRUInclusion$$' -fuzztime 20s

clean-store:
	@echo "Removing the run store at $(RUNSTORE)..."
	@rm -rf $(RUNSTORE)

.PHONY: all build test test-short race lint staticcheck profile bench-smoke bench-full bench-baseline bench-baseline-update sim-smoke sweep-smoke plan-smoke sim-nondeterminism scale-smoke optimize-smoke seeds-smoke trace-smoke fuzz-smoke serve-smoke jobs-smoke clean-store store-identity
