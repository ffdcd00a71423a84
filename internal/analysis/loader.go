package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Every loader in the process shares one file set and one source
// importer, so each standard-library package is type-checked from source
// once per process rather than once per loader or fixture. The source
// importer is not safe for concurrent use; stdMu serializes it.
var (
	sharedFset = token.NewFileSet()
	stdMu      sync.Mutex
	stdImp     = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
)

// importStd resolves a standard-library (non-module) import through the
// shared source importer.
func importStd(path, dir string, mode types.ImportMode) (*types.Package, error) {
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.ImportFrom(path, dir, mode)
}

// Package is one analyzable unit: a set of files to report on plus the
// full type-checked context they live in. A directory can yield up to
// three units — the plain package, the in-package test files (type-checked
// together with the plain files, as `go test` compiles them), and the
// external _test package.
type Package struct {
	// Path is the unit's import path ("ookami/internal/mpi"; external
	// test packages get the "_test" suffix).
	Path string
	Fset *token.FileSet
	// Files are the files analyzers report on.
	Files []*ast.File
	// AllFiles is the complete type-checked unit (Files plus any
	// supporting files); nolint directives are read from here.
	AllFiles []*ast.File
	Types    *types.Package
	Info     *types.Info
}

// Loader type-checks packages of one module from source. Imports inside
// the module are resolved by walking the module tree; everything else is
// delegated to the process-wide stdlib "source" importer, so the loader
// needs no dependencies beyond the standard library.
type Loader struct {
	ModuleRoot string
	ModulePath string

	cache   map[string]*types.Package
	loading map[string]bool
	units   map[string][]*Package // LoadDir results by directory
}

// NewLoader creates a loader for the module rooted at moduleRoot, reading
// the module path from its go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleRoot)
	}
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		cache:      map[string]*types.Package{},
		loading:    map[string]bool{},
		units:      map[string][]*Package{},
	}, nil
}

// Fset exposes the loader's file set (shared by all loaded packages and
// every other loader in the process).
func (l *Loader) Fset() *token.FileSet { return sharedFset }

// Import resolves an import path for go/types. Module-internal paths are
// type-checked from the module tree (memoized, non-test files only);
// everything else goes to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return importStd(path, dir, mode)
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pkgDir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath)))
	base, _, _, err := l.parseDir(pkgDir)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", pkgDir)
	}
	pkg, _, err := l.check(path, base)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file of dir into plain, in-package-test and
// external-test groups, sorted by file name for deterministic output.
func (l *Loader) parseDir(dir string) (base, intest, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		if !fileIncluded(f) {
			continue
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			base = append(base, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtest = append(xtest, f)
		default:
			intest = append(intest, f)
		}
	}
	return base, intest, xtest, nil
}

// fileIncluded evaluates a file's //go:build constraint (if any) for the
// loader's analysis context — the host GOOS/GOARCH with no optional tags
// set. Without this, a package pairing `//go:build race` and
// `//go:build !race` files (the race-gated test idiom) type-checks both
// and fails on the redeclaration; the compiler and go vet never see that
// configuration, and neither should the analyzers.
func fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				return true // malformed constraint: let the type checker report it
			}
			return expr.Eval(buildTagSatisfied)
		}
	}
	return true
}

// buildTagSatisfied is the tag environment the loader evaluates build
// constraints under: the host platform and compiler, nothing optional
// ("race", "integration", ...).
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly":
			return true
		}
	}
	return strings.HasPrefix(tag, "go1")
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, sharedFset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads every analyzable unit of one directory. Results are
// memoized, so every gate sharing the loader sees one type-checked copy.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	if units, ok := l.units[dir]; ok {
		return units, nil
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	base, intest, xtest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Package
	if len(base) > 0 {
		pkg, info, err := l.check(path, base)
		if err != nil {
			return nil, err
		}
		// Cache for importers of this package — but never replace an
		// entry: every unit must see one identity per imported package,
		// or types from different check runs fail to unify.
		if _, ok := l.cache[path]; !ok {
			l.cache[path] = pkg
		}
		units = append(units, &Package{
			Path: path, Fset: sharedFset, Files: base, AllFiles: base, Types: pkg, Info: info,
		})
	}
	if len(intest) > 0 {
		all := append(append([]*ast.File{}, base...), intest...)
		pkg, info, err := l.check(path, all)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: path, Fset: sharedFset, Files: intest, AllFiles: all, Types: pkg, Info: info,
		})
	}
	if len(xtest) > 0 {
		xl := l
		if len(intest) > 0 {
			xl = l.testVariant(path, units[len(units)-1].Types)
		}
		pkg, info, err := xl.check(path+"_test", xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: path + "_test", Fset: sharedFset, Files: xtest, AllFiles: xtest, Types: pkg, Info: info,
		})
	}
	l.units[dir] = units
	return units, nil
}

// testVariant returns a loader that resolves path to variant, the package
// type-checked with its in-package test files, and re-checks every module
// package that imports path against it. An external test package sees
// what `go test` compiles it against: the package plus, say, the helpers
// an export_test.go declares.
func (l *Loader) testVariant(path string, variant *types.Package) *Loader {
	tl := &Loader{
		ModuleRoot: l.ModuleRoot,
		ModulePath: l.ModulePath,
		cache:      map[string]*types.Package{path: variant},
		loading:    map[string]bool{},
	}
	depends := map[*types.Package]bool{}
	var dependsOn func(*types.Package) bool
	dependsOn = func(pkg *types.Package) bool {
		d, ok := depends[pkg]
		if !ok {
			for _, imp := range pkg.Imports() {
				if d = imp.Path() == path || dependsOn(imp); d {
					break
				}
			}
			depends[pkg] = d
		}
		return d
	}
	for p, pkg := range l.cache {
		if p != path && !dependsOn(pkg) {
			tl.cache[p] = pkg
		}
	}
	return tl
}

// LoadSource type-checks in-memory sources as one package — the fixture
// entry point for analyzer tests. Keys of files are file names; path is
// the package's import path (pick one that triggers the analyzer's
// package scoping, e.g. "ookami/internal/mpi").
func LoadSource(path string, files map[string]string) (*Package, error) {
	l := &Loader{
		ModuleRoot: "/nonexistent",
		ModulePath: "fixture.invalid", // never matches: all imports go to the source importer
		cache:      map[string]*types.Package{},
		loading:    map[string]bool{},
	}
	var names []string
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var parsed []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(sharedFset, name, files[name], parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	pkg, info, err := l.check(path, parsed)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: sharedFset, Files: parsed, AllFiles: parsed, Types: pkg, Info: info}, nil
}
