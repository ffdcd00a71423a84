# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race vet baselines check fuzz-cfg fuzz-purity fuzz-sched bench benchgate benchrecord gobench figures smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/ookami-vet ./...

# Re-record all three firewall baselines (compilerdiag, concsurface,
# parsafe) after an intentional codegen change, an added or removed
# spawn/lock/chan site, or a newly certified entry point. Re-recording
# an unchanged surface is a no-op, so the JSON diff under review shows
# exactly the acknowledged change.
baselines:
	$(GO) run ./cmd/ookami-vet -update-baseline

# The full gate: what a PR must keep green. One ookami-vet run covers
# the analyzers and the compilerdiag, concsurface and parsafe firewalls.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) run ./cmd/ookami-vet ./...

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
#   - bench: every ookami-bench subcommand. The registry listing; two
#     cheap workloads gated against the committed baseline with a loose
#     3x threshold — order-of-magnitude breakage, not drift; a record
#     into a scratch baseline file; then a second run into the same
#     history, the history listing and the trend analysis (two runs is
#     below the default -min-points, so it reports "insufficient
#     history" and exits 0). See docs/BENCHMARKS.md.
smoke:
	$(GO) run ./cmd/npbrun -bench EP -class S -threads 4 -model=false -trace trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.json
	$(GO) run ./cmd/ookami-trace chrome -o trace_ep.chrome.json trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.chrome.json > /dev/null
	$(GO) run ./cmd/ookami-serve smoke
	$(GO) build -o ookami-bench.smoke ./cmd/ookami-bench
	./ookami-bench.smoke list > /dev/null
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' \
		-history bench_history_smoke -commit smoke1 -q
	./ookami-bench.smoke compare -baseline internal/bench/baseline/BENCH_ookami.json \
		-threshold 3.0 -noise-mult 6
	./ookami-bench.smoke record -update-baseline -baseline BENCH_record_smoke.json \
		-repeats 3 -filter '^loops/simple$$' -q
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' \
		-out BENCH_hist_smoke.json -history bench_history_smoke -commit smoke2 -q
	./ookami-bench.smoke history -dir bench_history_smoke
	./ookami-bench.smoke trend -dir bench_history_smoke -threshold 3.0 -noise-mult 6
	rm -f ookami-bench.smoke BENCH_hist_smoke.json BENCH_record_smoke.json

# The raw `go test -bench` harness (figures/tables + kernel wall-clock).
gobench:
	$(GO) test -bench=. -benchmem

figures:
	$(GO) run ./cmd/ookami-figures -out results/
