package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime/debug"
	"time"

	"ookami/internal/stats"
	"ookami/internal/trace"
)

// Options configures a run. Zero fields take defaults.
type Options struct {
	// Repeats is the number of timed samples per workload (default 5).
	Repeats int
	// Warmup is the number of untimed iterations before sampling
	// (default 1) — on A64FX this hides first-touch page placement and
	// instruction-cache warmth; here it additionally absorbs Go's
	// lazy growth of runtime structures.
	Warmup int
	// Timeout bounds one workload end to end: setup, warmup, and all
	// sample attempts (default 120s).
	Timeout time.Duration
	// MaxCoV is the interference gate: a sample set whose coefficient
	// of variation exceeds it is discarded and re-collected (default
	// 0.25).
	MaxCoV float64
	// Retries is how many extra sample sets the CoV gate may request
	// (default 2). When exhausted the last set is kept, flagged noisy.
	Retries int
	// Backoff is the pause before the first re-collection, doubling
	// per retry (default 100ms) — a machine busy with someone else's
	// job usually is not 100ms later.
	Backoff time.Duration
	// Log, when non-nil, receives one progress line per workload.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	if o.MaxCoV <= 0 {
		o.MaxCoV = 0.25
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	return o
}

// RunAll executes the workloads sequentially (concurrent benchmarks
// would measure each other) and returns the stamped report. The context
// cancels the whole run; each workload additionally gets its own
// timeout.
func RunAll(ctx context.Context, ws []Workload, opt Options) *Report {
	opt = opt.withDefaults()
	rep := newReport()
	for _, w := range ws {
		if ctx.Err() != nil {
			break
		}
		res := runOne(ctx, w, opt)
		rep.Results = append(rep.Results, res)
		if opt.Log != nil {
			fmt.Fprintln(opt.Log, progressLine(&res))
		}
	}
	return rep
}

// progressLine renders one workload's outcome for the -v stream.
func progressLine(r *Result) string {
	if r.Failed() {
		return fmt.Sprintf("%-28s FAIL (%s) %s", r.Name, r.ErrKind, r.Error)
	}
	line := fmt.Sprintf("%-28s median %s  cov %4.1f%%  n=%d", r.Name,
		formatSeconds(r.Median), 100*r.CoV, r.Repeats)
	if r.ErrKind == ErrNoisy {
		line += "  (noisy)"
	}
	return line
}

// formatSeconds renders a duration-in-seconds at benchmark precision.
func formatSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3fms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.1fµs", s*1e6)
	default:
		return fmt.Sprintf("%.0fns", s*1e9)
	}
}

// now is the clock that times samples. Tests that check the CoV gate
// swap it for a fake so their samples do not depend on host load.
// runOne reads it before starting the workload goroutine, so a
// goroutine abandoned on timeout never reads it after a later swap.
var now = time.Now

// outcome is what the sampling goroutine reports back.
type outcome struct {
	samples  []float64
	attempts int
	err      *RunError
}

// runOne measures a single workload: setup, warmup, then up to
// 1+Retries sample sets under the CoV gate, the whole thing bounded by
// the per-workload timeout and isolated from panics. The workload runs
// on its own goroutine so a hang cannot take down the harness; on
// timeout the goroutine is abandoned (it re-checks the context between
// iterations, so a live workload unwinds promptly).
func runOne(parent context.Context, w Workload, opt Options) Result {
	res := Result{
		Name:    w.Name,
		Params:  w.Params,
		Repeats: opt.Repeats,
		Warmup:  opt.Warmup,
	}
	ctx, cancel := context.WithTimeout(parent, opt.Timeout)
	defer cancel()

	ch := make(chan outcome, 1)
	go sample(ctx, w, opt, now, ch)

	select {
	case out := <-ch:
		res.Attempts = out.attempts
		if out.err != nil {
			res.Error = out.err.Msg
			res.ErrKind = out.err.Kind
		}
		if res.ErrKind == ErrInvalidSample {
			// Keep the raw samples for forensics but no derived
			// statistics: a degenerate set yields NaN CoV/CIs, and one
			// NaN field makes the whole report unwritable.
			res.Samples = out.samples
		} else if len(out.samples) > 0 {
			fillStats(&res, out.samples)
		}
	case <-ctx.Done():
		res.Error = fmt.Sprintf("exceeded %v", opt.Timeout)
		res.ErrKind = ErrTimeout
	}
	return res
}

// sample runs on the workload goroutine; it must communicate only via
// ch (buffered) so an abandoned invocation cannot block.
func sample(ctx context.Context, w Workload, opt Options, now func() time.Time, ch chan<- outcome) {
	var out outcome
	defer func() {
		if r := recover(); r != nil {
			out.err = &RunError{Kind: ErrPanic, Workload: w.Name,
				Msg: fmt.Sprintf("%v\n%s", r, debug.Stack())}
			out.samples = nil
		}
		ch <- out
	}()

	iter, err := w.Setup()
	if err != nil {
		out.err = &RunError{Kind: ErrSetup, Workload: w.Name, Msg: err.Error()}
		return
	}
	warmT0 := phaseStart()
	for i := 0; i < opt.Warmup; i++ {
		if ctx.Err() != nil {
			return
		}
		iter()
	}
	emitPhase(w.Name, trace.NameWarmup, warmT0,
		trace.Arg{Key: trace.ArgN, Val: int64(opt.Warmup)}, trace.Arg{}, trace.Arg{})

	backoff := opt.Backoff
	for attempt := 0; attempt <= opt.Retries; attempt++ {
		out.attempts = attempt + 1
		sampT0 := phaseStart()
		samples := make([]float64, 0, opt.Repeats)
		for i := 0; i < opt.Repeats; i++ {
			if ctx.Err() != nil {
				return
			}
			t0 := now()
			iter()
			samples = append(samples, now().Sub(t0).Seconds())
		}
		out.samples = samples
		if reason := degenerate(samples); reason != "" {
			out.err = &RunError{Kind: ErrInvalidSample, Workload: w.Name, Msg: reason}
			emitPhase(w.Name, trace.NameSamples, sampT0,
				trace.Arg{Key: trace.ArgAttempt, Val: int64(attempt + 1)},
				trace.Arg{Key: trace.ArgN, Val: int64(len(samples))}, trace.Arg{})
			return
		}
		cov := stats.CoV(samples)
		emitPhase(w.Name, trace.NameSamples, sampT0,
			trace.Arg{Key: trace.ArgAttempt, Val: int64(attempt + 1)},
			trace.Arg{Key: trace.ArgN, Val: int64(len(samples))},
			trace.Arg{Key: trace.ArgCovPPM, Val: int64(cov * 1e6)})
		if cov <= opt.MaxCoV {
			out.err = nil
			return
		}
		out.err = &RunError{Kind: ErrNoisy, Workload: w.Name,
			Msg: fmt.Sprintf("CoV %.1f%% above gate %.1f%% after %d attempt(s)", 100*cov, 100*opt.MaxCoV, attempt+1)}
		if attempt < opt.Retries {
			backT0 := phaseStart()
			// time.After would keep its timer live until expiry when the
			// context wins the select; with doubling backoffs that pins
			// timers (and their wakeups) long past cancellation.
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return
			}
			emitPhase(w.Name, trace.NameBackoff, backT0,
				trace.Arg{Key: trace.ArgAttempt, Val: int64(attempt + 1)}, trace.Arg{}, trace.Arg{})
			backoff *= 2
		}
	}
}

// degenerate reports why a sample set cannot face the CoV gate: too
// few samples to measure dispersion, a non-finite or negative sample,
// or an all-zero set (a zero mean makes the CoV NaN — the workload ran
// below timer resolution). Empty string means the set is usable.
func degenerate(samples []float64) string {
	if len(samples) < 2 {
		return fmt.Sprintf("%d sample(s): the CoV interference gate needs at least 2", len(samples))
	}
	allZero := true
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
			return fmt.Sprintf("non-finite or negative sample %v", s)
		}
		if s > 0 {
			allZero = false
		}
	}
	if allZero {
		return "all samples are zero: workload runs below timer resolution; grow the problem size"
	}
	return ""
}

// phaseStart stamps a runner phase when tracing is enabled.
func phaseStart() int64 {
	if !trace.Enabled() {
		return 0
	}
	return trace.Now()
}

// emitPhase records one runner phase span (warmup, a sample-set
// attempt, a backoff pause) for the workload.
func emitPhase(workload, name string, t0 int64, a0, a1, a2 trace.Arg) {
	if !trace.Enabled() {
		return
	}
	trace.Emit(trace.Event{
		TS:     t0,
		Dur:    trace.Now() - t0,
		Ph:     trace.PhaseSpan,
		TID:    0,
		Cat:    trace.CatBench,
		Name:   name,
		Region: workload,
		Args:   [3]trace.Arg{a0, a1, a2},
	})
}

// fillStats populates the statistics fields from a sample set. The
// bootstrap seed derives from the workload name so re-analysis of the
// same samples is bit-for-bit reproducible.
func fillStats(res *Result, samples []float64) {
	res.Samples = samples
	s := stats.Summarize(samples)
	res.Mean, res.Min, res.Max = s.Mean, s.Min, s.Max
	res.Median = stats.Median(samples)
	res.CoV = stats.CoV(samples)
	res.CILow, res.CIHigh = stats.BootstrapCI(samples, stats.Median, 0.95, 1000, nameSeed(res.Name))
	// Last-resort guard: encoding/json refuses NaN/Inf, and one bad
	// field would lose the entire report file. The runner classifies
	// degenerate sets as ErrInvalidSample before reaching here, so a
	// non-finite statistic on this path is a bug — store zeros rather
	// than an unwritable report.
	for _, p := range []*float64{&res.Mean, &res.Min, &res.Max, &res.Median, &res.CoV, &res.CILow, &res.CIHigh} {
		if math.IsNaN(*p) || math.IsInf(*p, 0) {
			*p = 0
		}
	}
}

// nameSeed hashes a workload name into a bootstrap seed.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}
