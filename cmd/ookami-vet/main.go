// Command ookami-vet runs the reproduction's static-analysis gates in one
// pass over one loaded module. The gates are:
//
//   - the analyzers: the repro-specific checks (determinism of
//     golden-producing packages, float equality, benchmark harness
//     hygiene, dropped errors in the CLIs) that `go vet` has no opinion
//     on, the hot-path lints for the kernel packages, the
//     interprocedural concurrency analyzers from internal/analysis/conc
//     and the purity analyzers from internal/analysis/purity;
//   - compilerdiag: builds the kernel packages and the packages holding
//     //ookami:hot functions with
//     `-gcflags='-m -d=ssa/check_bce/debug=1'` and diffs the escape and
//     bounds-check diagnostics landing in hot functions against the
//     checked-in baseline;
//   - concsurface: diffs every goroutine spawn, lock acquisition and
//     channel make in the concurrent runtime packages against the
//     checked-in baseline, so new sites are always an explicit decision;
//   - parsafe: links the effect summaries of the certified surface into
//     one cross-package call graph and diffs every //ookami:pure entry
//     point's transitive effect set against the checked-in baseline.
//
// It exits nonzero when any analyzer reports a finding or any firewall
// (compilerdiag, concsurface, parsafe) reports a regression.
//
// Usage:
//
//	ookami-vet [-list] [-json] [-only determinism,concsurface] [packages]
//	ookami-vet -update-baseline [-only parsafe]
//
// Packages scope the analyzers and default to ./... resolved against the
// enclosing module. Each firewall's scope is the packages field its
// baseline under internal/analysis/baseline records; a missing baseline
// is an error until -update-baseline records one with the firewall's
// default scope. -update-baseline re-records the selected firewalls'
// baselines instead of diffing them, and runs no analyzer.
//
// An analyzer finding is suppressed by an `//ookami:nolint <analyzer> --
// reason` comment on the flagged line or the line above it.
//
// With -json, analyzer findings and firewall regressions are emitted as
// newline-delimited JSON objects ordered by (file, line, col, analyzer);
// a regression's analyzer is its firewall's name and its position the
// first site it names. See docs/ANALYSIS.md for the schema.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ookami/internal/analysis"
	"ookami/internal/analysis/conc"
	"ookami/internal/analysis/purity"
)

// baselineDir holds the firewalls' committed baselines, relative to the
// module root.
const baselineDir = "internal/analysis/baseline"

// allAnalyzers is the full suite: the core analyzers plus the
// concurrency and purity passes.
func allAnalyzers() []analysis.Analyzer {
	all := append(analysis.All(), conc.Analyzers()...)
	return append(all, purity.Analyzers()...)
}

// analyzerGates maps an analyzer to the gates that enforce it in -list.
// The purity analyzers' facts are additionally enforced cross-package by
// the parsafe firewall.
func analyzerGates(name string) string {
	for _, a := range purity.Analyzers() {
		if a.Name() == name {
			return "check,parsafe"
		}
	}
	return "check"
}

// A firewall diffs one surface of the module against its committed
// baseline, baselineDir/<name>.json. run returns the report lines of
// the regressions ("file[:line[:col]]: message") and logs its notes to
// lg; with update it re-records the baseline instead.
type firewall struct {
	name, doc string
	run       func(l *analysis.Loader, path string, update bool, lg *log.Logger) ([]string, error)
	fail      string // stderr summary of a failing diff, %d = regressions
}

var firewalls = []firewall{
	{"compilerdiag", "diffs compiler escape/BCE diagnostics in hot functions against", runCompilerDiag,
		"%d compiler-diagnostic regression(s); fix the code or record the intent with -update-baseline"},
	{"concsurface", "diffs the runtime packages' go/lock/chan sites against", runConcSurface,
		"%d concurrency-surface growth(s); every new go/lock/chan site must be acknowledged with -update-baseline"},
	{"parsafe", "diffs certified //ookami:pure entry points' effect sets against", runParsafe,
		"%d parallel-safety regression(s); restore purity or re-certify with -update-baseline"},
}

func (fw firewall) baseline() string { return baselineDir + "/" + fw.name + ".json" }

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		log.New(os.Stderr, "ookami-vet: ", 0).Fatal(err)
	}
	os.Exit(run(cwd, os.Args[1:], os.Stdout, os.Stderr))
}

// printer writes to w and keeps the first write error.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) f(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// run is the CLI on the module enclosing dir: findings go to stdout,
// notes and summaries to stderr, and the result is the exit code (0
// clean, 1 on a finding, a regression or an error, 2 when the flags do
// not parse).
func run(dir string, args []string, stdout, stderr io.Writer) int {
	lg := log.New(stderr, "ookami-vet: ", 0)
	out := &printer{w: stdout}
	flags := flag.NewFlagSet("ookami-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list analyzers and firewalls and exit")
	only := flags.String("only", "", "comma-separated analyzer and firewall names to run (default: all)")
	jsonOut := flags.Bool("json", false, "emit one finding per line as JSON")
	update := flags.Bool("update-baseline", false, "re-record the selected firewalls' baselines instead of running the gates")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		lg.Print(err)
		return 1
	}

	if *list {
		for _, a := range allAnalyzers() {
			out.f("%-14s %-14s %s\n", a.Name(), analyzerGates(a.Name()), a.Doc())
		}
		for _, fw := range firewalls {
			out.f("%-14s %-14s %s %s\n", fw.name, fw.name, fw.doc, fw.baseline())
		}
		if out.err != nil {
			return fail(out.err)
		}
		return 0
	}
	analyzers, gates, err := selectGates(*only)
	if err != nil {
		return fail(err)
	}

	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return fail(err)
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		return fail(err)
	}

	if *update {
		if flags.NArg() > 0 {
			return fail(errors.New("-update-baseline takes no packages: each firewall keeps the scope its baseline records"))
		}
		for _, fw := range gates {
			if _, err := fw.run(l, filepath.Join(root, fw.baseline()), true, lg); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	var findings []analysis.Diagnostic
	if len(analyzers) > 0 {
		diags, err := analysis.Vet(l, flags.Args(), analyzers)
		if err != nil {
			return fail(err)
		}
		for _, d := range diags {
			if !*jsonOut {
				out.f("%s\n", d)
			}
		}
		if len(diags) > 0 {
			lg.Printf("%d finding(s)", len(diags))
		}
		findings = diags
	}
	for _, fw := range gates {
		regressions, err := fw.run(l, filepath.Join(root, fw.baseline()), false, lg)
		if err != nil {
			return fail(err)
		}
		for _, r := range regressions {
			if !*jsonOut {
				out.f("%s\n", r)
			}
			findings = append(findings, reportDiagnostic(fw.name, r))
		}
		if len(regressions) > 0 {
			lg.Printf(fw.fail, len(regressions))
		}
	}
	if *jsonOut {
		analysis.SortDiagnostics(findings)
		enc := json.NewEncoder(stdout)
		for _, d := range findings {
			if err := enc.Encode(jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				return fail(err)
			}
		}
	}
	if out.err != nil {
		return fail(out.err)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// jsonFinding is the -json output schema: one object per line (ndjson),
// ordered by (file, line, col, analyzer). Documented in docs/ANALYSIS.md;
// keep the two in sync.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// selectGates resolves -only into the analyzers and firewalls to run;
// an empty list selects every gate.
func selectGates(only string) ([]analysis.Analyzer, []firewall, error) {
	if only == "" {
		return allAnalyzers(), firewalls, nil
	}
	var analyzers []analysis.Analyzer
	var gates []firewall
next:
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		for _, a := range allAnalyzers() {
			if a.Name() == name {
				analyzers = append(analyzers, a)
				continue next
			}
		}
		for _, fw := range firewalls {
			if fw.name == name {
				gates = append(gates, fw)
				continue next
			}
		}
		return nil, nil, fmt.Errorf("unknown analyzer or firewall %q (use -list)", name)
	}
	return analyzers, gates, nil
}

// reportDiagnostic turns a firewall report line into a finding of that
// firewall, positioned at the site the line starts with.
func reportDiagnostic(gate, line string) analysis.Diagnostic {
	d := analysis.Diagnostic{Analyzer: gate, Message: line}
	pos, msg, ok := strings.Cut(line, ": ")
	if !ok {
		return d
	}
	d.Message = msg
	parts := strings.Split(pos, ":")
	d.Pos.Filename = parts[0]
	for i, field := range []*int{&d.Pos.Line, &d.Pos.Column} {
		if i+1 < len(parts) {
			if n, err := strconv.Atoi(parts[i+1]); err == nil {
				*field = n
			}
		}
	}
	return d
}

// loadBaseline reads a firewall's baseline. When re-recording, a missing
// file yields the zero baseline, whose empty package list selects the
// firewall's default scope.
func loadBaseline[T any](path string, update bool) (T, error) {
	base, err := analysis.LoadJSON[T](path)
	if err != nil && !(update && errors.Is(err, fs.ErrNotExist)) {
		return base, fmt.Errorf("loading baseline: %v (run with -update-baseline to create it)", err)
	}
	return base, nil
}

// logNotes reports a diff's non-failing observations on lg.
func logNotes(lg *log.Logger, notes []string) {
	for _, s := range notes {
		lg.Printf("note: %s", s)
	}
}

// runCompilerDiag is the compilerdiag firewall.
func runCompilerDiag(l *analysis.Loader, path string, update bool, lg *log.Logger) ([]string, error) {
	base, err := loadBaseline[analysis.CompilerBaseline](path, update)
	if err != nil {
		return nil, err
	}
	findings, err := analysis.RunCompilerDiag(l.ModuleRoot, base.Packages)
	if err != nil {
		return nil, err
	}
	goVersion, err := analysis.GoVersion(l.ModuleRoot)
	if err != nil {
		return nil, err
	}
	if update {
		base = analysis.BuildBaseline(goVersion, base.Packages, findings)
		if err := analysis.SaveJSON(path, base); err != nil {
			return nil, err
		}
		lg.Printf("wrote %s: %d entr(ies) from %d finding(s) under %s", path, len(base.Entries), len(findings), goVersion)
		return nil, nil
	}
	if base.GoVersion != goVersion {
		lg.Printf("warning: baseline was recorded under %s, running under %s; diagnostics may differ for toolchain reasons",
			base.GoVersion, goVersion)
	}
	regressions, improvements := analysis.DiffBaseline(base, findings)
	logNotes(lg, improvements)
	return regressions, nil
}

// runConcSurface is the concsurface firewall.
func runConcSurface(l *analysis.Loader, path string, update bool, lg *log.Logger) ([]string, error) {
	base, err := loadBaseline[conc.SurfaceBaseline](path, update)
	if err != nil {
		return nil, err
	}
	sites, err := conc.CollectSurface(l, base.Packages)
	if err != nil {
		return nil, err
	}
	if update {
		base = conc.BuildSurfaceBaseline(base.Packages, sites)
		if err := analysis.SaveJSON(path, base); err != nil {
			return nil, err
		}
		lg.Printf("wrote %s: %d entr(ies) from %d site(s)", path, len(base.Entries), len(sites))
		return nil, nil
	}
	growth, shrinkage := conc.DiffSurface(base, sites)
	logNotes(lg, shrinkage)
	return growth, nil
}

// runParsafe is the parsafe firewall.
func runParsafe(l *analysis.Loader, path string, update bool, lg *log.Logger) ([]string, error) {
	base, err := loadBaseline[purity.ParsafeBaseline](path, update)
	if err != nil {
		return nil, err
	}
	funcs, err := purity.CollectParsafe(l, base.Packages)
	if err != nil {
		return nil, err
	}
	if update {
		base = purity.BuildParsafeBaseline(base.Packages, funcs)
		if err := analysis.SaveJSON(path, base); err != nil {
			return nil, err
		}
		lg.Printf("wrote %s: %d certified entry point(s)", path, len(base.Entries))
		return nil, nil
	}
	regressions, notes := purity.DiffParsafe(base, funcs)
	logNotes(lg, notes)
	return regressions, nil
}
