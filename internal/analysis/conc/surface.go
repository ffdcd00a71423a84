package conc

// The concurrency-surface firewall. Mirroring the compilerdiag
// firewall's shape, the concsurface gate of `ookami-vet` records every
// goroutine spawn, lock call and channel make in the packages that run
// concurrently today: the omp and mpi runtimes, the memo engine and its
// parexec.Map fan-out, ookami-serve, the bench runner and the tracer. It
// diffs the set against a committed baseline, so each new site is an
// explicit, reviewed decision: CI fails until the author reruns with
// -update-baseline and commits the grown baseline.

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// SurfacePackages is the default firewall scope: the packages that
// spawn goroutines, take locks, or make channels on behalf of the
// simulated runtimes.
var SurfacePackages = []string{
	"internal/bench",
	"internal/mpi",
	"internal/omp",
	"internal/parexec",
	"internal/serve",
	"internal/trace",
}

// SurfaceSite is one concurrency construct at a specific position.
type SurfaceSite struct {
	File   string `json:"file"` // module-relative path
	Line   int    `json:"line"`
	Func   string `json:"func"`   // enclosing declaration
	Kind   string `json:"kind"`   // "go", "lock" or "chan"
	Detail string `json:"detail"` // what is spawned/locked/made
}

// String renders the site in file:line form.
func (s SurfaceSite) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s: %s", s.File, s.Line, s.Kind, s.Func, s.Detail)
}

// SurfaceEntry aggregates identical sites; like compilerdiag baselines
// it keys on (file, func, kind, detail) with a count so line churn does
// not invalidate the baseline.
type SurfaceEntry struct {
	File   string `json:"file"`
	Func   string `json:"func"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
	Count  int    `json:"count"`
}

// SurfaceBaseline is the committed expectation.
type SurfaceBaseline struct {
	Packages []string       `json:"packages"`
	Entries  []SurfaceEntry `json:"entries"`
}

// CollectSurface loads the packages (module-relative directories) and
// returns every concurrency site in their non-test files, sorted by
// position.
func CollectSurface(l *analysis.Loader, pkgs []string) ([]SurfaceSite, error) {
	if len(pkgs) == 0 {
		pkgs = SurfacePackages
	}
	var sites []SurfaceSite
	for _, pkg := range pkgs {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(pkg))
		units, err := l.LoadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", pkg, err)
		}
		for _, u := range units {
			if strings.HasSuffix(u.Path, "_test") {
				continue
			}
			sites = append(sites, surfaceSites(u, l.ModuleRoot)...)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Kind < b.Kind
	})
	return sites, nil
}

// surfaceSites scans one package unit's non-test files.
func surfaceSites(p *analysis.Package, moduleRoot string) []SurfaceSite {
	var sites []SurfaceSite
	prefix := moduleRoot + string(filepath.Separator)
	for _, fd := range p.FuncDecls() {
		fn := analysis.FuncDisplayName(fd)
		add := func(n ast.Node, kind, detail string) {
			pos := p.Fset.Position(n.Pos())
			sites = append(sites, SurfaceSite{
				File:   filepath.ToSlash(strings.TrimPrefix(pos.Filename, prefix)),
				Line:   pos.Line,
				Func:   fn,
				Kind:   kind,
				Detail: detail,
			})
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				detail := "go func literal"
				if _, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); !isLit {
					detail = "go " + cfg.Render(p.Fset, n.Call.Fun)
				}
				add(n, "go", detail)
			case *ast.CallExpr:
				if obj, recv, method := lockCall(p, n); obj != nil && lockAcquires(method) {
					add(n, "lock", cfg.Render(p.Fset, recv)+"."+method)
				}
				if isChan, buffered := makesChan(p, n); isChan {
					detail := "make " + cfg.Render(p.Fset, n.Args[0])
					if buffered {
						detail += " (buffered)"
					} else {
						detail += " (unbuffered)"
					}
					add(n, "chan", detail)
				}
			}
			return true
		})
	}
	return sites
}

func siteKeys(sites []SurfaceSite) []analysis.TallyKey {
	keys := make([]analysis.TallyKey, len(sites))
	for i, s := range sites {
		keys[i] = analysis.TallyKey{File: s.File, Func: s.Func, Kind: s.Kind, Detail: s.Detail}
	}
	return keys
}

// BuildSurfaceBaseline aggregates sites into a baseline in stable order.
func BuildSurfaceBaseline(pkgs []string, sites []SurfaceSite) SurfaceBaseline {
	if len(pkgs) == 0 {
		pkgs = SurfacePackages
	}
	base := SurfaceBaseline{Packages: pkgs}
	keys, counts := analysis.Tally(siteKeys(sites))
	for _, k := range keys {
		base.Entries = append(base.Entries, SurfaceEntry{
			File: k.File, Func: k.Func, Kind: k.Kind, Detail: k.Detail, Count: counts[k],
		})
	}
	return base
}

// DiffSurface compares current sites against the baseline: growth
// (count above the accepted one) fails the firewall; shrinkage is an
// improvement to re-tighten with -update-baseline.
func DiffSurface(base SurfaceBaseline, sites []SurfaceSite) (growth, shrinkage []string) {
	accepted := map[analysis.TallyKey]int{}
	for _, e := range base.Entries {
		accepted[analysis.TallyKey{File: e.File, Func: e.Func, Kind: e.Kind, Detail: e.Detail}] = e.Count
	}
	grown, shrunk := analysis.DiffTally(accepted, siteKeys(sites))
	for _, d := range grown {
		growth = append(growth, fmt.Sprintf(
			"%s:%d: new concurrency site in %s: [%s] %s (%d now vs %d accepted)",
			d.Key.File, sites[d.First].Line, d.Key.Func, d.Key.Kind, d.Key.Detail, d.Now, d.Accepted))
	}
	for _, d := range shrunk {
		shrinkage = append(shrinkage, fmt.Sprintf(
			"%s: [%s] %s in %s: %d now vs %d accepted — baseline can be tightened",
			d.Key.File, d.Key.Kind, d.Key.Detail, d.Key.Func, d.Now, d.Accepted))
	}
	sort.Strings(growth)
	sort.Strings(shrinkage)
	return growth, shrinkage
}
