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
# SMOKE_OPS keeps the CI simulation smoke short.
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
		go test -run '^$$' -bench 'Fig2ModelAccuracy|SimulatorThroughput|SimulatorReplay|CacheHierarchy|BranchPredict|TraceGeneration|TraceReplay|TraceDecode|GridPlan|ModelPredict|TLBAccess|IQSchedule|SeedsParallel|StoreGetPut|Fit$$' \
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

# sim-smoke reruns the campaign warm twice, at GOMAXPROCS=1 and with
# every core: the store lookup runs on the worker pool, so both reruns
# must be pure store hits and draw byte-identical Figure 2 output.
sim-smoke:
	@mkdir -p $(CURDIR)/.bin
	@echo "Running a short experiment campaign (ops=$(SMOKE_OPS)) against the run store..."
	@go run ./cmd/experiments -run fig2 -ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) > /dev/null
	@set -e; for procs in 1 $$(nproc); do \
		echo "Re-running warm at GOMAXPROCS=$$procs: must be pure store hits..."; \
		GOMAXPROCS=$$procs go run ./cmd/experiments -run fig2 -ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) \
			2>$(CURDIR)/.bin/sim-smoke-$$procs.err >$(CURDIR)/.bin/sim-smoke-$$procs.txt \
			|| { cat $(CURDIR)/.bin/sim-smoke-$$procs.err; exit 1; }; \
		grep "0 simulated (100.0% hit rate)" $(CURDIR)/.bin/sim-smoke-$$procs.err; \
	done
	@echo "Comparing the warm Figure 2 outputs..."
	@cmp $(CURDIR)/.bin/sim-smoke-1.txt $(CURDIR)/.bin/sim-smoke-$$(nproc).txt

sweep-smoke:
	@echo "Running a 3-point ROB sweep (ops=$(SMOKE_OPS)) against the run store..."
	@go run ./cmd/sweep -base core2 -param rob -values 48,96,192 -suite cpu2000 \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) > /dev/null
	@echo "Re-running warm: must be pure store hits..."
	@go run ./cmd/sweep -base core2 -param rob -values 48,96,192 -suite cpu2000 \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) 2>&1 >/dev/null \
		| grep "0 simulated (100.0% hit rate)"

# plan-smoke is the grid-plan counterpart of sweep-smoke: a cold 2×2
# rob×mshrs plan through cmd/sweep's repeated -param/-values grid mode,
# then a warm rerun that must be pure store hits with zero trace
# regenerations (the stats line counts actual µop-stream generations;
# a fully warm plan touches neither the simulator nor the generator).
plan-smoke:
	@echo "Running a cold 2x2 grid plan (ops=$(SMOKE_OPS)) against the run store..."
	@go run ./cmd/sweep -base core2 -param rob -values 48,96 -param mshrs -values 4,8 \
		-suite cpu2000 -ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) > /dev/null
	@echo "Re-running warm: must be pure store hits and zero trace regenerations..."
	@go run ./cmd/sweep -base core2 -param rob -values 48,96 -param mshrs -values 4,8 \
		-suite cpu2000 -ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) 2>&1 >/dev/null \
		| grep "0 simulated (100.0% hit rate), 0 traces generated"

# sim-nondeterminism runs grid plans single-threaded and with every
# core — each against its own fresh run store — and asserts
# byte-identical wire-format plan JSON and byte-identical run-store
# artifacts: every simulation entry and the plan's stored base fit.
# Plan cells simulate concurrently over shared trace buffers and tapes
# (one walk of the caches and branch predictor per walk key), and a
# fit's multi-starts run on every core, so this is the gate that
# scheduling, worker count and GOMAXPROCS never leak into results
# (first slice of the ROADMAP determinism harness). The first plan,
# rob x mshrs, has one walk key; the second, memlat x l2kb, has an axis
# that shares a walk (memlat) and one that splits it (l2kb).
DET_PLANS := rob:48,96:mshrs:4,8 memlat:150,300:l2kb:2048,4096

sim-nondeterminism:
	@mkdir -p $(CURDIR)/.bin
	@set -e; for plan in $(DET_PLANS); do \
		set -- $$(echo $$plan | tr ':' ' '); \
		tag=$$1-$$3; \
		rm -rf $(CURDIR)/.bin/det-store-$$tag-1 $(CURDIR)/.bin/det-store-$$tag-n; \
		echo "Running a 2x2 $$1 x $$3 grid plan at GOMAXPROCS=1 (ops=$(SMOKE_OPS))..."; \
		GOMAXPROCS=1 go run ./cmd/sweep -base core2 -param $$1 -values $$2 -param $$3 -values $$4 \
			-suite cpu2000 -ops $(SMOKE_OPS) -starts 2 -json \
			-store $(CURDIR)/.bin/det-store-$$tag-1 > $(CURDIR)/.bin/det-plan-$$tag-1.json; \
		echo "Running the same plan at GOMAXPROCS=$$(nproc)..."; \
		GOMAXPROCS=$$(nproc) go run ./cmd/sweep -base core2 -param $$1 -values $$2 -param $$3 -values $$4 \
			-suite cpu2000 -ops $(SMOKE_OPS) -starts 2 -json \
			-store $(CURDIR)/.bin/det-store-$$tag-n > $(CURDIR)/.bin/det-plan-$$tag-n.json; \
		echo "Comparing plan JSON..."; \
		cmp $(CURDIR)/.bin/det-plan-$$tag-1.json $(CURDIR)/.bin/det-plan-$$tag-n.json; \
		echo "Comparing run-store artifacts..."; \
		diff -r $(CURDIR)/.bin/det-store-$$tag-1 $(CURDIR)/.bin/det-store-$$tag-n; \
	done
	@echo "sim-nondeterminism: byte-identical across GOMAXPROCS"

# store-identity checks that a simulator change left every stored
# Result byte for byte as it was: it fills one fresh run store from a
# checkout of PARENT (git archive, under .bin/) and another from the
# working tree — a rob x mshrs grid plan, a fig2 campaign, the memlat x
# l2kb grid plan of DET_PLANS and the example seeds sweep, all at
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

# optimize-smoke is the design-space-search counterpart of plan-smoke:
# a cold coordinate-descent search over the committed example spec, then
# a warm -json rerun that must be pure store hits with zero trace
# regenerations — asserted on both the store-stats line and the wire
# report ("simulated": 0, "traceGens": 0), the same fields POST
# /v1/optimize answers.
optimize-smoke:
	@mkdir -p $(CURDIR)/.bin
	@echo "Running a cold design-space optimize (ops=$(SMOKE_OPS)) against the run store..."
	@go run ./cmd/sweep -optimize examples/optimize/core2-min-cpi.json \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) > /dev/null
	@echo "Re-running warm: must be pure store hits and zero trace regenerations..."
	@go run ./cmd/sweep -optimize examples/optimize/core2-min-cpi.json -json \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) \
		2>&1 >$(CURDIR)/.bin/optimize-smoke.json \
		| grep "0 simulated (100.0% hit rate), 0 traces generated"
	@grep -q '"simulated": 0' $(CURDIR)/.bin/optimize-smoke.json
	@grep -q '"traceGens": 0' $(CURDIR)/.bin/optimize-smoke.json

# seeds-smoke is the statistical-replication counterpart of
# optimize-smoke: a cold 3-seed sweep over the committed example spec
# (each seed its own workload instantiation, so nothing is shareable
# across seeds), then a warm -json rerun that must be pure store hits
# with zero trace regenerations — asserted on both the store-stats line
# and the wire report ("simulated": 0, "traceGens": 0), the same fields
# POST /v1/seeds answers.
seeds-smoke:
	@mkdir -p $(CURDIR)/.bin
	@echo "Running a cold 3-seed replication sweep (ops=$(SMOKE_OPS)) against the run store..."
	@go run ./cmd/sweep -seeds examples/seeds/core2-seeds.json \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) > /dev/null
	@echo "Re-running warm: must be pure store hits and zero trace regenerations..."
	@go run ./cmd/sweep -seeds examples/seeds/core2-seeds.json -json \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) \
		2>&1 >$(CURDIR)/.bin/seeds-smoke.json \
		| grep "0 simulated (100.0% hit rate), 0 traces generated"
	@grep -q '"simulated": 0' $(CURDIR)/.bin/seeds-smoke.json
	@grep -q '"traceGens": 0' $(CURDIR)/.bin/seeds-smoke.json

# trace-smoke exercises the recorded-trace path end to end: tracetool
# generates a one-off trace file from an inline spec and inspects it,
# exports the cpu2000 suite to .mtrc files, import-verifies the
# directory, then runs a one-cell grid plan over the imported traces
# through the "file:DIR" suite form. The warm -json rerun must be pure
# store hits with zero trace loads — recorded streams replay from the
# store, not from disk ("simulated": 0, "traceGens": 0 in the wire
# report, the same fields POST /v1/plan answers). Export is
# deterministic, so the file content hashes — and therefore the store
# keys — are stable across CI runs and the cached run store stays warm.
trace-smoke:
	@mkdir -p $(CURDIR)/.bin
	@rm -rf $(CURDIR)/.bin/traces
	@echo "Generating a one-off trace file from an inline spec..."
	@printf '%s\n' '{"Name": "toy", "Seed": 7, "NumOps": 5000, "LoadFrac": 0.25, "StoreFrac": 0.1, "BranchHardFrac": 0.2, "CodeFootprint": 32768, "CodeLocality": 0.8, "DataFootprint": 1048576, "DataLocality": 0.6, "DepDistMean": 8}' \
		> $(CURDIR)/.bin/trace-smoke-spec.json
	@go run ./cmd/tracetool generate -spec $(CURDIR)/.bin/trace-smoke-spec.json -out $(CURDIR)/.bin/toy.mtrc
	@go run ./cmd/tracetool inspect $(CURDIR)/.bin/toy.mtrc
	@echo "Exporting the cpu2000 suite (ops=$(SMOKE_OPS)) to trace files..."
	@go run ./cmd/tracetool export -suite cpu2000 -ops $(SMOKE_OPS) -out $(CURDIR)/.bin/traces
	@echo "Import-verifying the exported directory..."
	@go run ./cmd/tracetool import $(CURDIR)/.bin/traces > /dev/null
	@echo "Running a cold one-cell plan over the imported traces..."
	@printf '%s\n' '{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [96]}], "suite": "file:$(CURDIR)/.bin/traces"}' \
		> $(CURDIR)/.bin/trace-smoke-plan.json
	@go run ./cmd/sweep -plan $(CURDIR)/.bin/trace-smoke-plan.json \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) > /dev/null
	@echo "Re-running warm: must be pure store hits and zero trace loads..."
	@go run ./cmd/sweep -plan $(CURDIR)/.bin/trace-smoke-plan.json -json \
		-ops $(SMOKE_OPS) -starts 2 -store $(RUNSTORE) \
		2>&1 >$(CURDIR)/.bin/trace-smoke.json \
		| grep "0 simulated (100.0% hit rate), 0 traces generated"
	@grep -q '"simulated": 0' $(CURDIR)/.bin/trace-smoke.json
	@grep -q '"traceGens": 0' $(CURDIR)/.bin/trace-smoke.json

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
	@echo "Fuzzing timing-only machine variants (metamorphic) for 20s..."
	@go test ./internal/sim -run '^$$' -fuzz '^FuzzTimingOnlyMachine$$' -fuzztime 20s
	@echo "Fuzzing LRU inclusion (doubling the ways never adds misses) for 20s..."
	@go test ./internal/cache -run '^$$' -fuzz '^FuzzLRUInclusion$$' -fuzztime 20s

# serve-smoke depends on sim-smoke/sweep-smoke so the run store is warm:
# the whole point of the assertion is that a warm store lets the daemon
# answer predict and kind requests without dispatching one simulation.
# The sweep report carries no sourcing of its own, so the same rob axis
# is posted once more as a one-axis plan, whose response must report
# its own zero.
serve-smoke: sim-smoke sweep-smoke
	@echo "Starting mecpid on a random port against the run store at $(RUNSTORE)..."
	@mkdir -p $(CURDIR)/.bin
	@go build -o $(CURDIR)/.bin/mecpid ./cmd/mecpid
	@rm -f $(CURDIR)/.bin/mecpid.addr
	@$(CURDIR)/.bin/mecpid -addr 127.0.0.1:0 -addrfile $(CURDIR)/.bin/mecpid.addr \
		-store $(RUNSTORE) -ops $(SMOKE_OPS) -starts 2 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do [ -s $(CURDIR)/.bin/mecpid.addr ] && break; sleep 0.1; done; \
	addr=$$(cat $(CURDIR)/.bin/mecpid.addr); \
	echo "daemon at $$addr; hitting healthz, predict, sweep, plan..." && \
	curl -fsS "http://$$addr/healthz" > /dev/null && \
	curl -fsS -X POST "http://$$addr/v1/predict" \
		-d '{"machine": {"name": "core2"}, "suite": "cpu2006", "workload": "mcf"}' > /dev/null && \
	curl -fsS -X POST "http://$$addr/v1/sweep" \
		-d '{"base": {"name": "core2"}, "param": "rob", "values": [48, 96, 192], "suite": "cpu2000"}' > /dev/null && \
	curl -fsS -X POST "http://$$addr/v1/plan" \
		-d '{"base": {"name": "core2"}, "axes": [{"param": "rob", "values": [48, 96, 192]}], "suite": "cpu2000"}' \
		| grep -q '"simulated": 0' && \
	echo "Asserting the warm store dispatched zero simulations..." && \
	curl -fsS "http://$$addr/v1/stats" | grep -q '"simulated": 0'

# jobs-smoke depends on sim-smoke so the run store is warm: the daemon
# must answer a whole background campaign job without dispatching one
# simulation. It submits the paper campaign as an async job, polls it to
# the done state, and asserts the job's progress reports zero simulated
# runs.
jobs-smoke: sim-smoke
	@echo "Starting mecpid on a random port against the run store at $(RUNSTORE)..."
	@mkdir -p $(CURDIR)/.bin
	@go build -o $(CURDIR)/.bin/mecpid ./cmd/mecpid
	@rm -f $(CURDIR)/.bin/mecpid.addr
	@$(CURDIR)/.bin/mecpid -addr 127.0.0.1:0 -addrfile $(CURDIR)/.bin/mecpid.addr \
		-store $(RUNSTORE) -ops $(SMOKE_OPS) -starts 2 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do [ -s $(CURDIR)/.bin/mecpid.addr ] && break; sleep 0.1; done; \
	addr=$$(cat $(CURDIR)/.bin/mecpid.addr); \
	echo "daemon at $$addr; submitting a campaign job..." && \
	id=$$(curl -fsS -X POST "http://$$addr/v1/jobs" \
		-d '{"kind": "campaign", "campaign": {"machines": [{"name": "pentium4"}, {"name": "core2"}, {"name": "corei7"}], "suites": ["cpu2000", "cpu2006"]}}' \
		| sed -n 's/.*"id": "\([^"]*\)".*/\1/p'); \
	[ -n "$$id" ] || { echo "job submission returned no id"; exit 1; }; \
	echo "job $$id accepted; polling to completion..."; \
	body=""; \
	for i in $$(seq 1 600); do \
		body=$$(curl -fsS "http://$$addr/v1/jobs/$$id"); \
		case "$$body" in \
			*'"state": "done"'*) break;; \
			*'"state": "failed"'*|*'"state": "cancelled"'*) echo "$$body"; exit 1;; \
		esac; \
		sleep 0.2; \
	done; \
	echo "$$body" | grep -q '"state": "done"' && \
	echo "Asserting the warm store dispatched zero simulations..." && \
	echo "$$body" | grep -q '"simulated": 0'

clean-store:
	@echo "Removing the run store at $(RUNSTORE)..."
	@rm -rf $(RUNSTORE)

.PHONY: all build test test-short race lint staticcheck profile bench-smoke bench-full bench-baseline bench-baseline-update sim-smoke sweep-smoke plan-smoke sim-nondeterminism scale-smoke optimize-smoke seeds-smoke trace-smoke fuzz-smoke serve-smoke jobs-smoke clean-store store-identity
