// Command ookami-bench orchestrates the reproduction's benchmark
// registry: it runs the registered kernels (warmup + repeats under a
// per-workload timeout, panic isolation and a CoV interference gate),
// stores schema-versioned results, and gates on regressions against a
// committed baseline using a noise-aware threshold plus a bootstrap
// CI-overlap test.
//
// Usage:
//
//	ookami-bench list
//	ookami-bench run [-filter regex] [-repeats n] [-warmup n] [-timeout d]
//	                 [-cov f] [-retries n] [-out file] [-trace file]
//	                 [-json] [-q]
//	ookami-bench compare [-baseline file] [-current file]
//	                     [-threshold f] [-noise-mult f]
//	ookami-bench record -update-baseline [run flags]
//
// `run` measures the workloads one after another in this process
// (co-running workloads would time each other), writes
// BENCH_ookami.json (override with -out) and exits nonzero if any
// workload hard-fails (setup error, panic, timeout). `compare` exits
// nonzero when any workload regresses.
// `record` re-runs everything and rewrites the committed baseline under
// internal/bench/baseline/; the diff is part of the PR under review.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ookami/internal/bench"
	"ookami/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// printer accumulates the first write error so output problems surface
// in the exit code instead of being silently dropped.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) f(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// run is the testable entry point; it returns the process exit code
// (0 ok, 1 failure/regression, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	out := &printer{w: stdout}
	errOut := &printer{w: stderr}
	if len(args) == 0 {
		usage(errOut)
		return 2
	}
	var code int
	switch args[0] {
	case "list":
		code = cmdList(args[1:], out, errOut)
	case "run":
		code = cmdRun(args[1:], out, errOut)
	case "compare":
		code = cmdCompare(args[1:], out, errOut)
	case "record":
		code = cmdRecord(args[1:], out, errOut)
	case "-h", "-help", "--help", "help":
		usage(out)
	default:
		errOut.f("ookami-bench: unknown subcommand %q\n", args[0])
		usage(errOut)
		code = 2
	}
	if code == 0 && (out.err != nil || errOut.err != nil) {
		return 1
	}
	return code
}

func usage(p *printer) {
	p.f("usage: ookami-bench <list|run|compare|record> [flags]\n")
	p.f("  list                      list registered workloads\n")
	p.f("  run     [-filter re] [-repeats n] [-warmup n] [-timeout d] [-cov f]\n")
	p.f("          [-retries n] [-out file] [-trace file] [-json] [-q]\n")
	p.f("                            run and store results\n")
	p.f("  compare [-baseline file] [-current file] [-threshold f] [-noise-mult f]\n")
	p.f("                            diff against a baseline; exit 1 on regression\n")
	p.f("  record  -update-baseline [run flags]            rewrite the committed baseline\n")
}

func cmdList(args []string, out, errOut *printer) int {
	fs := flag.NewFlagSet("list", flag.ContinueOnError)
	fs.SetOutput(errOut.w)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, w := range bench.All() {
		out.f("%-26s %s", w.Name, w.Doc)
		if len(w.Params) > 0 {
			out.f("  %s", paramString(w.Params))
		}
		out.f("\n")
	}
	return 0
}

// paramString renders params deterministically (sorted by key).
func paramString(params map[string]string) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "["
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += k + "=" + params[k]
	}
	return s + "]"
}

// runConfig carries every `run`/`record` flag as one value.
type runConfig struct {
	filter    string
	opt       bench.Options
	jsonOut   bool
	quiet     bool
	outPath   string
	tracePath string
}

// runFlags defines the flags shared by `run` and `record`.
func runFlags(fs *flag.FlagSet) *runConfig {
	cfg := &runConfig{}
	fs.StringVar(&cfg.filter, "filter", "", "regexp selecting workload names (default: all)")
	fs.IntVar(&cfg.opt.Repeats, "repeats", 0, "timed samples per workload (default 5)")
	fs.IntVar(&cfg.opt.Warmup, "warmup", 0, "untimed warmup iterations (default 1)")
	fs.DurationVar(&cfg.opt.Timeout, "timeout", 0, "per-workload timeout (default 2m)")
	fs.Float64Var(&cfg.opt.MaxCoV, "cov", 0, "max coefficient of variation before re-running (default 0.25)")
	fs.IntVar(&cfg.opt.Retries, "retries", 0, "re-collections allowed by the CoV gate (default 2)")
	fs.BoolVar(&cfg.jsonOut, "json", false, "also write the report JSON to stdout")
	fs.BoolVar(&cfg.quiet, "q", false, "suppress per-workload progress")
	fs.StringVar(&cfg.outPath, "out", bench.DefaultReportPath, "result file to write")
	fs.StringVar(&cfg.tracePath, "trace", "", "trace the run: write Chrome trace_event JSON to `file` (OOKAMI_TRACE also enables)")
	return cfg
}

func cmdRun(args []string, out, errOut *printer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(errOut.w)
	cfg := runFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return doRun(cfg, out, errOut)
}

// doRun executes the selected workloads in process, one after
// another, stores the report (file, optional stdout JSON) and turns
// hard failures into the exit code.
func doRun(cfg *runConfig, out, errOut *printer) int {
	ws, err := bench.Match(cfg.filter)
	if err != nil {
		errOut.f("ookami-bench: %v\n", err)
		return 2
	}
	if len(ws) == 0 {
		errOut.f("ookami-bench: no workloads match %q\n", cfg.filter)
		return 2
	}
	opt := cfg.opt
	if !cfg.quiet {
		opt.Log = errOut.w
	}
	if cfg.tracePath != "" {
		trace.Enable()
	}
	rep := bench.RunAll(context.Background(), ws, opt)
	if tp := effectiveTracePath(cfg.tracePath); tp != "" || trace.Enabled() {
		// With no file to write (the boolean OOKAMI_TRACE), the summary
		// table on stderr is the trace's only output.
		var summary io.Writer
		if tp == "" && !cfg.quiet {
			summary = errOut.w
		}
		if err := trace.Finish(tp, summary); err != nil {
			errOut.f("ookami-bench: trace: %v\n", err)
			return 1
		}
		if tp != "" && !cfg.quiet {
			errOut.f("ookami-bench: trace -> %s\n", tp)
		}
	}
	if err := rep.WriteFile(cfg.outPath); err != nil {
		errOut.f("ookami-bench: %v\n", err)
		return 1
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out.w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			errOut.f("ookami-bench: %v\n", err)
			return 1
		}
	}
	failed := 0
	for i := range rep.Results {
		if rep.Results[i].Failed() {
			failed++
			errOut.f("ookami-bench: %s failed (%s): %s\n",
				rep.Results[i].Name, rep.Results[i].ErrKind, firstLine(rep.Results[i].Error))
		}
	}
	if !cfg.quiet {
		errOut.f("ookami-bench: %d workload(s) -> %s\n", len(rep.Results), cfg.outPath)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// effectiveTracePath resolves where the trace file goes: the -trace
// flag wins, else a path-valued OOKAMI_TRACE.
func effectiveTracePath(flagPath string) string {
	if flagPath != "" {
		return flagPath
	}
	return trace.EnvPath()
}

// firstLine truncates multi-line errors (panic stacks) for the console.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

func cmdCompare(args []string, out, errOut *printer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(errOut.w)
	baseline := fs.String("baseline", bench.DefaultBaselinePath, "baseline result file")
	current := fs.String("current", bench.DefaultReportPath, "current result file")
	var opt bench.CompareOptions
	fs.Float64Var(&opt.Threshold, "threshold", 0, "regression ratio before noise widening (default 1.10)")
	fs.Float64Var(&opt.NoiseMult, "noise-mult", 0, "CoV multiple added to the gate (default 2)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base, err := bench.LoadReport(*baseline)
	if err != nil {
		errOut.f("ookami-bench: baseline: %v\n", err)
		return 2
	}
	cur, err := bench.LoadReport(*current)
	if err != nil {
		errOut.f("ookami-bench: current: %v\n", err)
		return 2
	}
	c := bench.Compare(base, cur, opt)
	out.f("%s", c.Table().String())
	for _, m := range c.EnvMismatch {
		out.f("note: env mismatch: %s\n", m)
	}
	if len(c.MissingInCurrent) > 0 {
		out.f("note: %d baseline workload(s) not in current run (filtered?)\n", len(c.MissingInCurrent))
	}
	if len(c.AddedInCurrent) > 0 {
		out.f("note: %d workload(s) have no baseline yet; run `record -update-baseline`\n", len(c.AddedInCurrent))
	}
	regs := c.Regressions()
	if len(regs) > 0 {
		for _, d := range regs {
			out.f("REGRESSION: %s is %.2fx slower than baseline (gate %.2fx, CI-disjoint)\n",
				d.Name, d.Ratio, d.Gate)
		}
		return 1
	}
	out.f("no regressions\n")
	return 0
}

func cmdRecord(args []string, out, errOut *printer) int {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(errOut.w)
	cfg := runFlags(fs)
	update := fs.Bool("update-baseline", false, "required: rewrite the committed baseline")
	baseline := fs.String("baseline", bench.DefaultBaselinePath, "baseline file to write")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*update {
		errOut.f("ookami-bench: record refuses to overwrite the baseline without -update-baseline\n")
		return 2
	}
	cfg.outPath = *baseline
	if cfg.opt.Repeats == 0 {
		// Baselines deserve more samples than ad-hoc runs.
		cfg.opt.Repeats = 7
	}
	return doRun(cfg, out, errOut)
}
