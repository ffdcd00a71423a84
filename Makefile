# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race vet compilerdiag baseline concsurface concbaseline parsafe parsafebaseline check fuzz-cfg fuzz-purity fuzz-sched bench benchgate benchrecord gobench figures smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/ookami-vet ./...

# Diff the compiler's escape/BCE diagnostics for the kernel packages
# against the checked-in baseline; fails on any new diagnostic in a hot
# function.
compilerdiag:
	$(GO) run ./cmd/ookami-vet -compilerdiag

# Re-record the compilerdiag baseline after an intentional codegen
# change. The resulting JSON diff is part of the PR under review.
baseline:
	$(GO) run ./cmd/ookami-vet -compilerdiag -update-baseline

# Diff the concurrency surface (goroutine spawns, lock acquisitions,
# channel makes) of the simulated-runtime packages against the
# checked-in baseline; any new site fails until acknowledged.
concsurface:
	$(GO) run ./cmd/ookami-vet -concsurface

# Re-record the concurrency-surface baseline after an intentionally
# added spawn/lock/chan site. The JSON diff is part of the PR review.
concbaseline:
	$(GO) run ./cmd/ookami-vet -concsurface -update-baseline

# Diff the certified //ookami:pure entry points' transitive effect sets
# against the checked-in baseline; a certified function gaining an
# impure or hidden-input effect (or losing its marker) fails.
parsafe:
	$(GO) run ./cmd/ookami-vet -parsafe

# Re-record the parallel-safety baseline after certifying new entry
# points or an acknowledged effect change. The JSON diff is part of the
# PR under review.
parsafebaseline:
	$(GO) run ./cmd/ookami-vet -parsafe -update-baseline

# The full gate: what a PR must keep green.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/ookami-vet ./...
	$(GO) run ./cmd/ookami-vet -compilerdiag
	$(GO) run ./cmd/ookami-vet -concsurface
	$(GO) run ./cmd/ookami-vet -parsafe

# Short fuzz pass over the CFG builder: any parseable function body
# must yield a total, well-formed graph.
fuzz-cfg:
	$(GO) test ./internal/analysis/cfg -fuzz=FuzzCFG -fuzztime=30s

# Short fuzz pass over the purity effect-summary fixpoint: hostile call
# graphs (mutual recursion, method values, closures) must terminate
# without panicking.
fuzz-purity:
	$(GO) test ./internal/analysis/purity -fuzz=FuzzSummarize -fuzztime=30s

# Short fuzz pass over the scheduler: on any body and profile, the
# event-driven core must match the cycle-stepped reference exactly
# (total cycles, every issue event, the utilization).
fuzz-sched:
	$(GO) test ./internal/perfmodel -run '^$$' -fuzz=FuzzScheduleEquivalence -fuzztime=30s

# Run the registered workloads through the orchestrator and store
# BENCH_ookami.json (warmup + repeats, CoV interference gate, bootstrap
# CIs; see docs/BENCHMARKS.md).
bench:
	$(GO) run ./cmd/ookami-bench run

# The perf gate: re-measure and diff against the committed baseline,
# failing on any workload that regresses beyond the noise-aware
# threshold with disjoint confidence intervals.
benchgate:
	$(GO) run ./cmd/ookami-bench run -q
	$(GO) run ./cmd/ookami-bench compare

# Re-record the committed benchmark baseline after an intentional
# performance change; the JSON diff is part of the PR under review.
benchrecord:
	$(GO) run ./cmd/ookami-bench record -update-baseline

# Smoke: every product surface end to end, leaving its artifacts for
# inspection (the `smoke` CI job uploads them).
#   - trace: one traced NPB kernel through both cmd/ookami-trace
#     exporters — the summary must aggregate and the conversion must
#     round-trip (see docs/OBSERVABILITY.md);
#   - serve: the prediction API on an ephemeral port, every endpoint
#     over real HTTP, and the cached predict path held to >= 10k req/s
#     with byte-identical responses (see docs/SERVE.md);
#   - bench: two cheap workloads gated against the committed baseline
#     with a loose 3x threshold — order-of-magnitude breakage, not
#     drift — then a second run through the multi-process fleet, the
#     history listing and the trend analysis (two runs is below the
#     default -min-points, so it reports "insufficient history" and
#     exits 0). See docs/BENCHMARKS.md.
smoke:
	$(GO) run ./cmd/npbrun -bench EP -class S -threads 4 -model=false -trace trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.json
	$(GO) run ./cmd/ookami-trace chrome -o trace_ep.chrome.json trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.chrome.json > /dev/null
	$(GO) run ./cmd/ookami-serve smoke
	$(GO) build -o ookami-bench.smoke ./cmd/ookami-bench
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' \
		-history bench_history_smoke -commit smoke1 -q
	./ookami-bench.smoke compare -baseline internal/bench/baseline/BENCH_ookami.json \
		-threshold 3.0 -noise-mult 6
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' -procs 2 \
		-out BENCH_hist_smoke.json -history bench_history_smoke -commit smoke2 -q
	./ookami-bench.smoke history -dir bench_history_smoke
	./ookami-bench.smoke trend -dir bench_history_smoke -threshold 3.0 -noise-mult 6
	rm -f ookami-bench.smoke BENCH_hist_smoke.json

# The raw `go test -bench` harness (figures/tables + kernel wall-clock).
gobench:
	$(GO) test -bench=. -benchmem

figures:
	$(GO) run ./cmd/ookami-figures -out results/
