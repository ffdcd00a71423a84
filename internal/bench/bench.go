// Package bench is the reproduction's benchmark-orchestration layer:
// the machinery that turns the kernels of the paper (the Section III
// loop suite, the FEXPA exp kernels, the NPB pseudo-applications,
// LULESH, and the HPCC/BLAS/FFT/STREAM kernels) into named, repeatable
// measurements with recorded statistics.
//
// The design follows the methodology the A64FX literature insists on
// for credible claims: every workload runs warmup iterations before
// timing, collects N repeats, is summarized robustly (median plus a
// percentile-bootstrap confidence interval, not a lone mean), carries a
// coefficient-of-variation interference gate that re-runs noisy sample
// sets with backoff, and records the environment it ran under. Results
// land in a schema-versioned JSON report (BENCH_ookami.json) that the
// comparator diffs against a committed baseline, flagging regressions
// only when they clear both a noise-aware threshold and a bootstrap
// CI-overlap test.
//
// The workloads themselves are defined in one file, workloads.go, and
// registered from this package's init; the kernel packages do not
// import the harness. cmd/ookami-bench exposes list/run/compare/record.
package bench

// Workload is one registered benchmark: a named, parameterized kernel
// invocation. Setup builds the workload's inputs once (outside any
// timing) and returns the iteration function the runner times; the
// iteration function must be re-invocable, with each call performing
// one full unit of work on the prepared inputs.
type Workload struct {
	// Name identifies the workload as "suite/kernel", e.g.
	// "loops/simple" or "npb/ep-S". The suite prefix groups the
	// registry listing and gives filters a natural grain.
	Name string
	// Doc is a one-line description shown by `ookami-bench list`.
	Doc string
	// Params records the workload's fixed parameters (problem size,
	// class, variant, threads) in the JSON result, so a baseline is
	// only ever compared against the same configuration.
	Params map[string]string
	// Setup prepares inputs and returns the timed iteration function.
	Setup func() (func(), error)
}

// ErrKind classifies a workload failure in the JSON result.
type ErrKind string

const (
	// ErrSetup: the workload's Setup returned an error.
	ErrSetup ErrKind = "setup"
	// ErrPanic: the workload panicked; the runner isolated it.
	ErrPanic ErrKind = "panic"
	// ErrTimeout: the workload exceeded its per-workload deadline.
	ErrTimeout ErrKind = "timeout"
	// ErrNoisy: the sample CoV never passed the interference gate
	// within the retry budget. Samples and statistics are still
	// recorded, flagged as untrustworthy.
	ErrNoisy ErrKind = "noisy"
	// ErrInvalidSample: the sample set is degenerate — fewer than two
	// samples (the CoV gate has nothing to gate on), a non-finite or
	// negative sample, or an all-zero set (the workload ran below
	// timer resolution). The raw samples are recorded but no derived
	// statistics are, so NaN can never reach the JSON report (which
	// encoding/json would refuse to write, losing the whole file).
	ErrInvalidSample ErrKind = "invalid-sample"
)

// RunError is the typed error a failed workload surfaces in its Result.
type RunError struct {
	Kind     ErrKind
	Workload string
	Msg      string
}

// Error implements error.
func (e *RunError) Error() string {
	return "bench: " + e.Workload + ": " + string(e.Kind) + ": " + e.Msg
}
