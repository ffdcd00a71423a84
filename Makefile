# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test race vet baselines check fuzz-cfg fuzz-purity fuzz-sched fuzz-report fuzz-predict fuzz-vmath fuzz-npb fuzz-trace fuzz-env bench benchgate benchrecord gobench figures smoke

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
# perfbench is a module of its own that `./...` does not reach; vetting
# it compiles it against this module's internal API. The arm64 build
# compiles the Go fallbacks of the amd64 assembly kernels, which no
# amd64 build reaches.
check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: files need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
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
# (total cycles, every issue event, the utilization), and so must the
# breakdown's one-run reading (cycles, busy counts, critical op).
fuzz-sched:
	$(GO) test ./internal/perfmodel -run '^$$' -fuzz=FuzzScheduleEquivalence -fuzztime=30s

# Short fuzz pass over the bench report loader: any file must load as a
# schema-1 report or fail with a typed error, and a loaded report must
# compare against itself and render without panicking. Minimization is
# capped because the default (up to 60 s per new input, on a corpus
# seeded with the 18 KB baseline) would take the whole run.
fuzz-report:
	$(GO) test ./internal/bench -run '^$$' -fuzz=FuzzLoadReport -fuzztime=30s -fuzzminimizetime=100x

# Short fuzz pass over POST /v1/predict: any body must get 200, 400, 404
# or 413, never a 5xx or a panic, and every 200 body must be the exact
# bytes of the direct explain.Predict answer.
fuzz-predict:
	$(GO) test ./internal/serve -run '^$$' -fuzz=FuzzPredict -fuzztime=30s

# Short fuzz pass over the vector math library: on any function, inputs
# and slice length, every lane kernel must give the bits of its
# per-register SVE reference (NaN compared as NaN).
fuzz-vmath:
	$(GO) test ./internal/vmath -run '^$$' -fuzz=FuzzVmathMatchesRegisterRef -fuzztime=30s

# Short fuzz passes over NPB's bit-for-bit rewrites, one target per run
# (`go test -fuzz` takes one): on any small CSR matrix (ragged, empty
# and odd-count rows) and team size, CG's two-rows-at-a-time SpMV must
# give the bits of the one-row loop; on any five inputs, EP's
# Box–Muller pass (the AVX2 kernel where the host has it) must give the
# bits of math.Sqrt(-2*math.Log(t)/t); and from any odd LCG state and
# block length, EP's AVX2 block must give every output bit of the Go
# block loop. Minimization is capped as in fuzz-report: at the default,
# minimizing one new input stalled the run for most of its time.
fuzz-npb:
	$(GO) test ./internal/npb -run '^$$' -fuzz='^FuzzMulVecMatchesRowLoop$$' -fuzztime=15s -fuzzminimizetime=100x
	$(GO) test ./internal/npb -run '^$$' -fuzz='^FuzzBoxMullerMatchesMathLog$$' -fuzztime=15s -fuzzminimizetime=100x
	$(GO) test ./internal/npb -run '^$$' -fuzz='^FuzzEPBlockMatchesGo$$' -fuzztime=15s -fuzzminimizetime=100x

# Short fuzz pass over the trace reader, which loads files from outside
# the process in both the object and the bare-array trace_event form:
# any bytes must load or fail with an error, never panic, and a loaded
# trace must summarize and survive a write-back round trip. Minimization
# is capped as in fuzz-report.
fuzz-trace:
	$(GO) test ./internal/trace -run '^$$' -fuzz=FuzzReadChrome -fuzztime=30s -fuzzminimizetime=100x

# Short fuzz passes over the two numeric environment parsers:
# OOKAMI_TRACE_BUF must select a positive capacity and OOKAMI_MPI_TIMEOUT
# a non-negative duration or a typed error, whatever the value. Each
# parser is a few lines, so 10 s apiece is enough.
fuzz-env:
	$(GO) test ./internal/trace -run '^$$' -fuzz=FuzzTraceBufEnv -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/mpi -run '^$$' -fuzz=FuzzTimeoutFromEnv -fuzztime=10s -fuzzminimizetime=100x

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
#   - trace: the NPB EP class S workload, timed and verified by
#     ookami-bench with -trace (3 repeats: the CoV gate needs at least
#     2 samples; its report goes to a scratch file so BENCH_ookami.json
#     stays the gated run's), then through both cmd/ookami-trace
#     exporters — the summary must aggregate and the conversion must
#     round-trip (see docs/OBSERVABILITY.md);
#   - serve: the prediction API on an ephemeral port, every endpoint
#     over real HTTP, and the cached predict path held to >= 10k req/s
#     with byte-identical responses (see docs/SERVE.md);
#   - bench: every ookami-bench subcommand. The registry listing; two
#     cheap workloads gated against the committed baseline with a loose
#     3x threshold — order-of-magnitude breakage, not drift; and a
#     record into a scratch baseline file. See docs/BENCHMARKS.md.
smoke:
	$(GO) run ./cmd/ookami-bench run -filter '^npb/ep-s$$' -repeats 3 -q -trace trace_ep.json -out BENCH_trace_smoke.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.json
	$(GO) run ./cmd/ookami-trace chrome -o trace_ep.chrome.json trace_ep.json
	$(GO) run ./cmd/ookami-trace summary trace_ep.chrome.json > /dev/null
	$(GO) run ./cmd/ookami-serve smoke
	$(GO) build -o ookami-bench.smoke ./cmd/ookami-bench
	./ookami-bench.smoke list > /dev/null
	./ookami-bench.smoke run -repeats 3 -filter 'loops/simple|vmath/exp' -q
	./ookami-bench.smoke compare -baseline internal/bench/baseline/BENCH_ookami.json \
		-threshold 3.0 -noise-mult 6
	./ookami-bench.smoke record -update-baseline -baseline BENCH_record_smoke.json \
		-repeats 3 -filter '^loops/simple$$' -q
	rm -f ookami-bench.smoke BENCH_record_smoke.json BENCH_trace_smoke.json

# The raw `go test -bench` harness (figures/tables + kernel wall-clock).
gobench:
	$(GO) test -bench=. -benchmem

figures:
	$(GO) run ./cmd/ookami-figures -out results/
