// Command perfbench is the repository's benchmark. It measures the three
// product paths end to end — the figure run, the kernel sweep, and a
// served /v1/predict on cache hits — and, in a separate traced run,
// layer by layer. It calls the packages' public functions and times each
// call from outside; it changes none of them.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload serve-hot --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: whether every
// output checked out, how many operations were attempted and failed, and
// the metrics by name with units. --trace 0 prints the end-to-end
// metrics; --trace 1 prints the per-layer metrics and writes a Chrome
// trace that `ookami-trace summary` reads. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"ookami/internal/stats"
	"ookami/internal/trace"
)

// runner is one prepared workload.
type runner interface {
	// measure runs operations until the deadline, or until maxOps when
	// it is positive, recording them in ph.
	measure(ph *phase, deadline time.Time, maxOps int)
	// finish completes ph after timing with what was recorded elsewhere.
	finish(ph *phase)
	// layers adds the per-layer metrics derived from an untraced phase.
	layers(ph *phase, out map[string]float64)
	// probe runs the per-layer probes of a traced run.
	probe(out map[string]float64) probeResult
	close()
}

// workload names a runner. setup builds the inputs that need no timing
// and returns the set-up step that setup_s times.
type workload struct {
	name  string
	setup func(seed int64) (func() (runner, error), error)
	// tracedCap bounds the operations of a traced phase so that no ring
	// shard of the trace wraps over the benchmark's own spans (kernels:
	// so that the omp runtime's spans of each sweep are all kept).
	tracedCap int
}

var workloads = []workload{
	{"figures", setupFigures, 200},
	{"kernels", setupKernels, 1},
	{"serve-hot", setupServeHot, traceBufEvents/2 - 2*probeN},
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 5

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traced int
	fs.StringVar(&cfg.workload, "workload", "", "workload: figures, kernels or serve-hot")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&traced, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "trace file of a traced run (default .bench_build/perfbench-<workload>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if traced != 0 && traced != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, not %d", traced)
	}
	if !(cfg.seconds > 0) {
		return config{}, fmt.Errorf("--seconds must be positive")
	}
	cfg.traced = traced == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench-"+cfg.workload+".trace.json")
	}
	return cfg, nil
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// run executes one benchmark run and logs a human-readable summary.
func run(cfg config, log io.Writer) (*result, error) {
	wl, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	trace.Disable() // tracing is this program's choice, not the environment's
	prepare, err := wl.setup(cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return tracedRun(cfg, wl, prepare, log)
	}

	var r runner
	var setups []float64
	for k := 0; k < setupReps; k++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		if r, err = prepare(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()
	runtime.GC()
	ph := timed(r, cfg.seconds, 0)
	vals := map[string]float64{
		"setup_s":          stats.Median(setups),
		"latency_p50_ms":   stats.Median(ph.lat),
		"throughput_ops_s": float64(ph.ok) / ph.elapsed,
		"part_geomean_ms":  ph.partGeomean(),
		"mem_peak_mb":      ph.memPeak,
	}
	fmt.Fprintf(log, "%s seed %d: %d operations, %d failed (error_ratio %g), %d parts, %.1fs timed, tail latency %.4g ms\n",
		cfg.workload, cfg.seed, ph.attempted(), ph.failed, errorRatio(ph.failed, ph.attempted()),
		len(ph.parts), ph.elapsed, tail(ph.lat))
	return newResult(ph.attempted(), ph.failed, endToEnd, vals)
}

// tracedRun measures a third of the time untraced, for the per-layer
// timings; a third with tracing switched on and off, for the tracing
// overhead; and a third traced, for the spans. Then it runs the probes
// under tracing and writes the trace.
func tracedRun(cfg config, wl workload, prepare func() (runner, error), log io.Writer) (*result, error) {
	r, err := prepare()
	if err != nil {
		return nil, err
	}
	defer r.close()
	runtime.GC()
	third := cfg.seconds / 3
	plain := timed(r, third, 0)
	vals := map[string]float64{}
	for _, d := range perLayer() {
		vals[d.name] = 0 // a layer this workload never calls
	}
	r.layers(plain, vals)
	if n := plain.attempted(); n > 0 {
		vals["go.allocs_per_op"] = float64(plain.allocs) / float64(n)
	}
	vals["go.gc_cycles"] = float64(plain.gcs)

	ov, err := overhead(r, third)
	if err != nil {
		return nil, err
	}
	vals["trace.overhead_pct"] = ov.pct

	if err := os.Setenv("OOKAMI_TRACE_BUF", strconv.Itoa(traceBufEvents)); err != nil {
		return nil, err
	}
	trace.Enable()
	traced := timed(r, third, wl.tracedCap)
	pr := r.probe(vals)
	snap := trace.Snapshot()
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return nil, err
	}
	if err := trace.Finish(cfg.traceOut, nil); err != nil {
		return nil, err
	}
	selfs := selfTimes(snap.Events)
	cats := make([]string, 0, len(selfs))
	for cat := range selfs {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	fmt.Fprintf(log, "%s seed %d: trace %s, %d events, %d dropped; tracing overhead %.1f%% over %d blocks\n",
		cfg.workload, cfg.seed, cfg.traceOut, len(snap.Events), snap.Dropped, ov.pct, ov.blocks)
	for _, cat := range cats {
		st := selfs[cat]
		us := float64(st.selfNS) / float64(st.spans) / 1e3
		fmt.Fprintf(log, "  self %-10s %8d spans %12.1f us/span %10.1f ms total\n", cat, st.spans, us, float64(st.selfNS)/1e6)
		if _, ok := vals["self."+cat+"_us"]; ok {
			vals["self."+cat+"_us"] = us
		}
	}
	vals["trace.dropped"] = float64(snap.Dropped)
	attempted := plain.attempted() + ov.attempted + traced.attempted() + pr.attempted
	failed := plain.failed + ov.failed + traced.failed + pr.failed
	fmt.Fprintf(log, "%s seed %d: %d operations and probes, %d failed (error_ratio %g)\n",
		cfg.workload, cfg.seed, attempted, failed, errorRatio(failed, attempted))
	return newResult(attempted, failed, perLayer(), vals)
}

// overheadBlock is the length of one block of the overhead phase; a
// block holds at least one operation.
const overheadBlock = 250 * time.Millisecond

// overheadBufEvents is the ring size while the overhead is measured:
// those events are discarded, so a small ring keeps each Enable cheap.
const overheadBufEvents = 1024

// overheadResult is the tracing overhead and the operations behind it.
type overheadResult struct {
	pct                       float64 // traced over untraced median operation time, minus one
	blocks, attempted, failed int
}

// overhead alternates blocks of operations untraced and traced for the
// given seconds, ending on a whole pair, and compares the median
// operation time of the traced blocks with that of the untraced ones.
// Drift of the host within the phase reaches both alike.
func overhead(r runner, seconds float64) (overheadResult, error) {
	var res overheadResult
	if err := os.Setenv("OOKAMI_TRACE_BUF", strconv.Itoa(overheadBufEvents)); err != nil {
		return res, err
	}
	var on, off []float64
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k%2 == 1 || time.Now().Before(end); k++ {
		if k%2 == 1 {
			trace.Enable()
		}
		ph := timed(r, overheadBlock.Seconds(), 0)
		trace.Disable() // the block's events are not kept
		if k%2 == 1 {
			on = append(on, ph.lat...)
		} else {
			off = append(off, ph.lat...)
		}
		res.blocks++
		res.attempted += ph.attempted()
		res.failed += ph.failed
	}
	res.pct = (stats.Median(on)/stats.Median(off) - 1) * 100
	return res, nil
}

// timed measures one phase and completes it.
func timed(r runner, seconds float64, maxOps int) *phase {
	ph := newPhase()
	mem := startMemSampler()
	a0, g0, _ := readRuntime()
	t0 := time.Now()
	r.measure(ph, t0.Add(time.Duration(seconds*float64(time.Second))), maxOps)
	ph.elapsed = time.Since(t0).Seconds()
	a1, g1, _ := readRuntime()
	ph.memPeak = mem.finish()
	ph.allocs, ph.gcs = a1-a0, g1-g0
	r.finish(ph)
	return ph
}

func errorRatio(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// newResult builds the output line from the values of the listed
// metrics.
func newResult(attempted, failed int, defs []metricDef, vals map[string]float64) (*result, error) {
	res := &result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}
