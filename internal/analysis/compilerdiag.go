package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The compiler-feedback firewall. The paper's method is to never trust
// a kernel's source shape: it asks the compiler what it actually did
// (vectorization reports, assembly). The Go analogue of those reports
// is `-gcflags='-m -d=ssa/check_bce/debug=1'`: escape-analysis
// decisions and the bounds checks left after BCE. This file runs the
// real compiler over the packages that hold hot functions, keeps the
// diagnostics landing in hot functions, and diffs them against a
// checked-in baseline so a refactor that silently adds a heap
// allocation or a bounds check to a hot loop fails `make check` instead
// of shipping. It is the one allocation gate for hot code: it judges
// what the compiler emitted, not what the source looks like.

// CompilerFinding is one escape or bounds-check diagnostic attributed
// to a hot function.
type CompilerFinding struct {
	File    string `json:"file"` // module-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Func    string `json:"func"` // enclosing declaration, e.g. "LU.sweep"
	Kind    string `json:"kind"` // "escape" or "bce"
	Message string `json:"message"`
}

// String renders the finding in file:line:col form.
func (f CompilerFinding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s: %s", f.File, f.Line, f.Col, f.Kind, f.Func, f.Message)
}

// BaselineEntry aggregates identical diagnostics. Line and column churn
// is expected under unrelated edits, so baselines key on
// (file, func, kind, message) with a count rather than on positions.
type BaselineEntry struct {
	File    string `json:"file"`
	Func    string `json:"func"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Count   int    `json:"count"`
}

// CompilerBaseline is the checked-in expectation: the accepted set of
// compiler diagnostics for the scoped packages under one Go version.
type CompilerBaseline struct {
	GoVersion string          `json:"go_version"`
	Packages  []string        `json:"packages"`
	Entries   []BaselineEntry `json:"entries"`
}

// CompilerDiagPatterns returns the ./-prefixed build patterns of the
// firewall's default scope: the kernel packages, then the packages
// holding //ookami:hot functions.
func CompilerDiagPatterns() []string {
	var out []string
	for _, p := range slices.Concat(KernelPackages, MarkedHotPackages) {
		out = append(out, "./"+p)
	}
	return out
}

// gcDiagFlags asks the compiler for escape analysis decisions (-m) and
// for the bounds checks surviving BCE (check_bce). go build replays
// these diagnostics from the build cache, so repeated runs are cheap
// and deterministic.
const gcDiagFlags = "-gcflags=-m -d=ssa/check_bce/debug=1"

var diagLineRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// classifyDiag maps a compiler message to a finding kind, or "" for
// diagnostics the firewall ignores (inlining decisions, param leaks).
func classifyDiag(msg string) string {
	switch {
	case strings.Contains(msg, "escapes to heap"),
		strings.HasPrefix(msg, "moved to heap:"):
		return "escape"
	case strings.Contains(msg, "Found IsInBounds"),
		strings.Contains(msg, "Found IsSliceInBounds"):
		return "bce"
	}
	return ""
}

// RunCompilerDiag builds the given packages of the module with
// diagnostic flags, parses the compiler's escape and bounds-check
// output, and returns the findings attributed to hot functions, sorted
// and deduplicated by position (inlining re-reports the same site once
// per inlined copy).
func RunCompilerDiag(moduleRoot string, patterns []string) ([]CompilerFinding, error) {
	if len(patterns) == 0 {
		patterns = CompilerDiagPatterns()
	}
	cmd := exec.Command("go", append([]string{"build", gcDiagFlags}, patterns...)...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build %s failed: %v\n%s", strings.Join(patterns, " "), err, out)
	}

	hotIdx := map[string]*fileFuncIndex{}
	seen := map[CompilerFinding]bool{}
	var findings []CompilerFinding
	for _, line := range strings.Split(string(out), "\n") {
		m := diagLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		kind := classifyDiag(m[4])
		if kind == "" {
			continue
		}
		file := filepath.ToSlash(m[1])
		lineNo, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		idx, ok := hotIdx[file]
		if !ok {
			idx = indexFileFuncs(moduleRoot, file)
			hotIdx[file] = idx
		}
		fn, hot := idx.lookup(lineNo)
		if !hot {
			continue
		}
		f := CompilerFinding{File: file, Line: lineNo, Col: col, Func: fn, Kind: kind, Message: m[4]}
		if seen[f] {
			continue
		}
		seen[f] = true
		findings = append(findings, f)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	})
	return findings, nil
}

// fileFuncIndex maps source lines of one file to their enclosing
// function declaration and its hotness.
type fileFuncIndex struct {
	spans []funcSpan
}

type funcSpan struct {
	name     string
	from, to int
	hot      bool
}

// indexFileFuncs parses one module-relative file (syntax only) and
// records each declaration's line range and hotness. A file that fails
// to parse yields an empty index, treating its findings as cold.
func indexFileFuncs(moduleRoot, relFile string) *fileFuncIndex {
	idx := &fileFuncIndex{}
	full := filepath.Join(moduleRoot, filepath.FromSlash(relFile))
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return idx
	}
	pkgPath := path.Dir(filepath.ToSlash(relFile))
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		idx.spans = append(idx.spans, funcSpan{
			name: FuncDisplayName(fd),
			from: fset.Position(fd.Pos()).Line,
			to:   fset.Position(fd.End()).Line,
			hot:  HotFuncDecl(pkgPath, fd),
		})
	}
	return idx
}

// lookup returns the name and hotness of the declaration containing the
// line, or ("", false) for lines outside any function body.
func (idx *fileFuncIndex) lookup(line int) (string, bool) {
	for _, s := range idx.spans {
		if line >= s.from && line <= s.to {
			return s.name, s.hot
		}
	}
	return "", false
}

func findingKeys(findings []CompilerFinding) []TallyKey {
	keys := make([]TallyKey, len(findings))
	for i, f := range findings {
		keys[i] = TallyKey{f.File, f.Func, f.Kind, f.Message}
	}
	return keys
}

// BuildBaseline aggregates findings into a baseline for the given Go
// version and package scope, with entries in a stable order.
func BuildBaseline(goVersion string, patterns []string, findings []CompilerFinding) CompilerBaseline {
	if len(patterns) == 0 {
		patterns = CompilerDiagPatterns()
	}
	base := CompilerBaseline{GoVersion: goVersion, Packages: patterns}
	keys, counts := Tally(findingKeys(findings))
	for _, k := range keys {
		base.Entries = append(base.Entries, BaselineEntry{
			File: k.File, Func: k.Func, Kind: k.Kind, Message: k.Detail, Count: counts[k],
		})
	}
	return base
}

// DiffBaseline compares current findings against the baseline and
// returns one line per regression: a diagnostic whose count exceeds the
// accepted count (covering both brand-new sites and extra copies of a
// known one). Diagnostics that disappeared are improvements, not
// regressions, and are reported separately so baselines can be
// re-tightened with -update-baseline.
func DiffBaseline(base CompilerBaseline, findings []CompilerFinding) (regressions, improvements []string) {
	accepted := map[TallyKey]int{}
	for _, e := range base.Entries {
		accepted[TallyKey{e.File, e.Func, e.Kind, e.Message}] = e.Count
	}
	growth, shrinkage := DiffTally(accepted, findingKeys(findings))
	for _, d := range growth {
		p := findings[d.First]
		regressions = append(regressions, fmt.Sprintf(
			"%s:%d:%d: new %s diagnostic in hot function %s: %q (%d now vs %d accepted)",
			p.File, p.Line, p.Col, d.Key.Kind, d.Key.Func, d.Key.Detail, d.Now, d.Accepted))
	}
	for _, d := range shrinkage {
		improvements = append(improvements, fmt.Sprintf(
			"%s: %s %q in %s: %d now vs %d accepted — baseline can be tightened",
			d.Key.File, d.Key.Kind, d.Key.Detail, d.Key.Func, d.Now, d.Accepted))
	}
	sort.Strings(regressions)
	sort.Strings(improvements)
	return regressions, improvements
}

// GoVersion reports the toolchain version the way `go env GOVERSION`
// does, e.g. "go1.24.0".
func GoVersion(moduleRoot string) (string, error) {
	cmd := exec.Command("go", "env", "GOVERSION")
	cmd.Dir = moduleRoot
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOVERSION: %v", err)
	}
	return strings.TrimSpace(string(out)), nil
}
