package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"ookami/internal/bench"
)

// The fleet runner scales the harness past one process: the parent
// re-executes its own binary once per worker, hands each a contiguous
// shard of the matched workload list ("-shard i/n"), and merges the
// per-worker report files back in shard order — which, because shards
// are contiguous, is exactly the sequential run's result order.
// Workers inherit the parent's run flags, run quietly, and write into
// a private temp directory; the parent owns the final report, the
// optional history append, and the exit code. Workers are started
// together and then waited on in shard order — no goroutines, the
// concurrency is entirely between processes.

// workerEnvVar marks a child process as a fleet worker. The test
// binary uses it to route itself into run() from TestMain, so the
// fleet path is exercisable under `go test` where os.Executable() is
// the test binary itself.
const workerEnvVar = "OOKAMI_BENCH_WORKER"

// runFleet fans the run across cfg.procs worker processes. total is
// the number of matched workloads (already validated non-zero).
func runFleet(cfg *runConfig, total int, out, errOut *printer) int {
	procs := cfg.procs
	if procs > total {
		procs = total
	}
	if cfg.tracePath != "" {
		errOut.f("ookami-bench: note: tracing is per-process; ignoring -trace under -procs\n")
	}
	exe, err := os.Executable()
	if err != nil {
		errOut.f("ookami-bench: fleet: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp("", "ookami-fleet-")
	if err != nil {
		errOut.f("ookami-bench: fleet: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	type worker struct {
		cmd    *exec.Cmd
		out    string
		stderr bytes.Buffer
	}
	workers := make([]worker, procs)
	for i := range workers {
		workers[i].out = filepath.Join(dir, fmt.Sprintf("worker-%03d.json", i))
		cmd := exec.Command(exe, workerArgs(cfg, i, procs, workers[i].out)...)
		cmd.Env = workerEnv()
		cmd.Stderr = &workers[i].stderr
		workers[i].cmd = cmd
	}
	for i := range workers {
		if err := workers[i].cmd.Start(); err != nil {
			errOut.f("ookami-bench: fleet: worker %d: %v\n", i, err)
			for j := 0; j < i; j++ {
				if kerr := workers[j].cmd.Process.Kill(); kerr != nil {
					errOut.f("ookami-bench: fleet: worker %d: kill: %v\n", j, kerr)
				}
				if werr := workers[j].cmd.Wait(); werr != nil {
					// Expected: a killed worker reaps with the kill
					// signal as its error. Reported for completeness.
					errOut.f("ookami-bench: fleet: worker %d: %v\n", j, werr)
				}
			}
			return 1
		}
	}
	if !cfg.quiet {
		errOut.f("ookami-bench: fleet: %d worker(s) over %d workload(s)\n", procs, total)
	}

	// Wait in shard order. Exit 1 means some workload hard-failed but
	// the report was still written — the merge proceeds and the failure
	// resurfaces from the merged report's failure scan. Anything else
	// (usage error, crash, missing report) fails the fleet.
	code := 0
	reps := make([]*bench.Report, procs)
	for i := range workers {
		err := workers[i].cmd.Wait()
		if msg := workers[i].stderr.String(); msg != "" {
			errOut.f("%s", msg)
		}
		if err != nil {
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				errOut.f("ookami-bench: fleet: worker %d: %v\n", i, err)
				code = 1
				continue
			}
		}
		rep, err := bench.LoadReport(workers[i].out)
		if err != nil {
			errOut.f("ookami-bench: fleet: worker %d report: %v\n", i, err)
			code = 1
			continue
		}
		reps[i] = rep
	}
	if code != 0 {
		return code
	}
	merged, err := bench.MergeShardReports(reps)
	if err != nil {
		errOut.f("ookami-bench: fleet: %v\n", err)
		return 1
	}
	return finishRun(cfg, merged, out, errOut)
}

// workerArgs rebuilds a worker's `run` command line from the parent's
// parsed flags: the shard assignment, a private output file, quiet
// output, and the measurement knobs the parent was given. History,
// tracing and stdout JSON stay with the parent.
func workerArgs(cfg *runConfig, i, n int, outPath string) []string {
	args := []string{"run", "-shard", fmt.Sprintf("%d/%d", i, n), "-out", outPath, "-q"}
	if cfg.filter != "" {
		args = append(args, "-filter", cfg.filter)
	}
	if cfg.opt.Repeats != 0 {
		args = append(args, "-repeats", fmt.Sprint(cfg.opt.Repeats))
	}
	if cfg.opt.Warmup != 0 {
		args = append(args, "-warmup", fmt.Sprint(cfg.opt.Warmup))
	}
	if cfg.opt.Timeout != 0 {
		args = append(args, "-timeout", cfg.opt.Timeout.String())
	}
	if cfg.opt.MaxCoV != 0 {
		args = append(args, "-cov", fmt.Sprint(cfg.opt.MaxCoV))
	}
	if cfg.opt.Retries != 0 {
		args = append(args, "-retries", fmt.Sprint(cfg.opt.Retries))
	}
	return args
}

// workerEnv is the parent environment plus the worker marker, minus
// any ambient trace request (workers racing to write one trace file
// would corrupt it).
func workerEnv() []string {
	env := []string{workerEnvVar + "=1"}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "OOKAMI_TRACE=") && !strings.HasPrefix(kv, workerEnvVar+"=") {
			env = append(env, kv)
		}
	}
	return env
}
