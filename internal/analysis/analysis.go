// Package analysis is a stdlib-only static-analysis framework for this
// reproduction. The paper's thesis — A64FX results are only trustworthy
// when the toolchain is interrogated — applies to the repro itself: the
// golden-file figure suite depends on bit-for-bit determinism, the
// goroutine-based OMP/MPI runtimes depend on correct synchronization, and
// the benchmark harness depends on loop results actually being live.
// Nothing in `go vet` checks any of that, so this package does: a shared
// Analyzer interface, a module-aware package loader built on go/parser +
// go/types (chained to the stdlib "source" importer, keeping go.mod
// dependency-free), and repro-specific analyzers run by cmd/ookami-vet.
//
// Findings are suppressed with a `//ookami:nolint <analyzer>` comment on
// the flagged line or the line directly above it; the directive also
// covers the full extent of the (simple) statement it annotates, so
// multi-line calls, table literals and stored closures stay suppressed
// however gofmt wraps them. A bare `//ookami:nolint` suppresses every
// analyzer. Suppressions should carry a justification after `--`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer name, a precise position and a
// human-readable message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one check. Run inspects a loaded package and returns its
// findings; the framework handles nolint filtering and ordering.
type Analyzer interface {
	// Name is the short identifier used in output and nolint comments.
	Name() string
	// Doc is a one-line description of what the analyzer flags.
	Doc() string
	// Run analyzes one package unit.
	Run(p *Package) []Diagnostic
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		FloatEq{},
		BenchHygiene{},
		ErrcheckLite{},
		HotAppend{},
		HotDefer{},
		HotIface{},
		HotReduce{},
	}
}

// ByName returns the analyzer with the given name.
func ByName(name string) (Analyzer, bool) {
	for _, a := range All() {
		if a.Name() == name {
			return a, true
		}
	}
	return nil, false
}

// RunAll runs every analyzer over the package, applies nolint
// suppressions, and returns the findings sorted by position.
func RunAll(p *Package, analyzers []Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(p)...)
	}
	diags = filterNolint(p, diags)
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// nolintDirective is a parsed //ookami:nolint comment.
type nolintDirective struct {
	analyzers map[string]bool // empty = all analyzers
}

func (n nolintDirective) suppresses(analyzer string) bool {
	return len(n.analyzers) == 0 || n.analyzers[analyzer]
}

// nolintIndex maps file -> line -> directives covering that line.
//
// A directive covers its own line and the next line (so it can sit at
// the end of the flagged line or on the line above), and additionally
// the full extent of any statement starting on either of those lines.
// That makes suppression position-robust: a directive on the first line
// of a multi-line statement — a call with wrapped arguments, a
// table-driven composite literal, a stored closure — suppresses
// findings reported anywhere inside it. Compound statements (for, if,
// switch, select, labeled loops) are covered header-only, so a
// directive on a loop never blankets its whole body.
func nolintIndex(p *Package) map[string]map[int][]nolintDirective {
	starts := stmtStartIndex(p)
	idx := make(map[string]map[int][]nolintDirective)
	for _, f := range p.AllFiles {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "ookami:nolint") {
					continue
				}
				rest := strings.TrimPrefix(text, "ookami:nolint")
				d := nolintDirective{analyzers: map[string]bool{}}
				for _, name := range strings.Fields(rest) {
					name = strings.Trim(name, ",")
					if name == "" {
						continue
					}
					// Anything after "--" is justification prose.
					if name == "--" {
						break
					}
					d.analyzers[name] = true
				}
				pos := p.Fset.Position(c.Pos())
				if idx[pos.Filename] == nil {
					idx[pos.Filename] = make(map[int][]nolintDirective)
				}
				cover := map[int]bool{pos.Line: true, pos.Line + 1: true}
				for _, base := range []int{pos.Line, pos.Line + 1} {
					for _, s := range starts[pos.Filename][base] {
						lo, hi := stmtExtent(p.Fset, s)
						for ln := lo; ln <= hi; ln++ {
							cover[ln] = true
						}
					}
				}
				for ln := range cover {
					idx[pos.Filename][ln] = append(idx[pos.Filename][ln], d)
				}
			}
		}
	}
	return idx
}

// stmtStartIndex maps file -> line -> statements starting on that line,
// including statements nested inside function literals.
func stmtStartIndex(p *Package) map[string]map[int][]ast.Stmt {
	idx := make(map[string]map[int][]ast.Stmt)
	for _, f := range p.AllFiles {
		fname := p.Fset.Position(f.Pos()).Filename
		if idx[fname] == nil {
			idx[fname] = make(map[int][]ast.Stmt)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok {
				line := p.Fset.Position(s.Pos()).Line
				idx[fname][line] = append(idx[fname][line], s)
			}
			return true
		})
	}
	return idx
}

// stmtExtent returns the inclusive line range a nolint directive on the
// statement's first line should cover. Simple statements cover their
// full source extent; compound statements cover only their header (up
// to the opening brace of the body) so suppression stays targeted.
func stmtExtent(fset *token.FileSet, s ast.Stmt) (lo, hi int) {
	lo = fset.Position(s.Pos()).Line
	switch s := s.(type) {
	case *ast.ForStmt:
		return lo, fset.Position(s.Body.Lbrace).Line
	case *ast.RangeStmt:
		return lo, fset.Position(s.Body.Lbrace).Line
	case *ast.IfStmt:
		return lo, fset.Position(s.Body.Lbrace).Line
	case *ast.SwitchStmt:
		return lo, fset.Position(s.Body.Lbrace).Line
	case *ast.TypeSwitchStmt:
		return lo, fset.Position(s.Body.Lbrace).Line
	case *ast.SelectStmt:
		return lo, fset.Position(s.Body.Lbrace).Line
	case *ast.LabeledStmt:
		_, hi = stmtExtent(fset, s.Stmt)
		return lo, hi
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		return lo, lo
	default:
		return lo, fset.Position(s.End()).Line
	}
}

func filterNolint(p *Package, diags []Diagnostic) []Diagnostic {
	idx := nolintIndex(p)
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, dir := range idx[d.Pos.Filename][d.Pos.Line] {
			if dir.suppresses(d.Analyzer) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// PathHasSuffix reports whether the import path matches a configured
// package suffix, e.g. "ookami/internal/figures" matches
// "internal/figures". Full equality also matches so that test fixtures
// can use the bare suffix as their path.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// IsTestFile reports whether f is a _test.go file.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// FuncDecls returns the function declarations with a body in the unit's
// non-test files, in file and declaration order.
func (p *Package) FuncDecls() []*ast.FuncDecl {
	var decls []*ast.FuncDecl
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	return decls
}

// Diag builds a Diagnostic at a node's position.
func (p *Package) Diag(analyzer string, n ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      p.Fset.Position(n.Pos()),
		Message:  fmt.Sprintf(format, args...),
	}
}

// ShortPos renders a position module-agnostically for cross-site
// references inside messages: file base name and line ("team.go:42").
func ShortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}
