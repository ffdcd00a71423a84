package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// cleanKernel has no escape or bounds-check diagnostics: the range loop
// is BCE-free and nothing escapes. Setup allocates, but is cold.
const cleanKernel = `package loops

func Sum(xs []float64) float64 {
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s
}

//ookami:cold
func Setup(n int) []*int {
	out := make([]*int, 0, n)
	for i := 0; i < n; i++ {
		v := i
		out = append(out, &v)
	}
	return out
}
`

// regressedKernel adds two hot-path regressions on top of cleanKernel:
// an indexed gather the compiler cannot bounds-check-eliminate, and a
// local that escapes to the heap.
const regressedKernel = cleanKernel + `
func Gather(xs []float64, idx []int) float64 {
	s := 0.0
	for _, i := range idx {
		s += xs[i]
	}
	return s
}

func Leak(n int) *int {
	x := n
	return &x
}
`

// TestCompilerDiagRegressionFirewall is the end-to-end acceptance test:
// baseline a clean temp module, inject an escape and a bounds check
// into a hot function, and require the diff to fail.
func TestCompilerDiagRegressionFirewall(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                   "module tempmod\n\ngo 1.22\n",
		"internal/loops/kernel.go": cleanKernel,
	})

	findings, err := RunCompilerDiag(root, []string{"./internal/loops"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Func == "Setup" {
			t.Errorf("cold function leaked into findings: %s", f)
		}
	}
	if len(findings) != 0 {
		t.Fatalf("clean kernel produced findings: %v", findings)
	}

	goVersion, err := GoVersion(root)
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(root, "baseline.json")
	base := BuildBaseline(goVersion, []string{"./internal/loops"}, findings)
	if err := SaveJSON(basePath, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadJSON[CompilerBaseline](basePath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.GoVersion != goVersion || len(loaded.Entries) != len(base.Entries) {
		t.Fatalf("baseline roundtrip mismatch: %+v vs %+v", loaded, base)
	}

	// Clean tree diffs clean.
	if reg, _ := DiffBaseline(loaded, findings); len(reg) != 0 {
		t.Fatalf("clean tree reported regressions: %v", reg)
	}

	// Inject the regression and require the firewall to trip.
	kernel := filepath.Join(root, "internal", "loops", "kernel.go")
	if err := os.WriteFile(kernel, []byte(regressedKernel), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err = RunCompilerDiag(root, []string{"./internal/loops"})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	funcs := map[string]bool{}
	for _, f := range findings {
		kinds[f.Kind] = true
		funcs[f.Func] = true
	}
	if !kinds["bce"] || !kinds["escape"] {
		t.Fatalf("expected both bce and escape findings, got %v", findings)
	}
	if !funcs["Gather"] || !funcs["Leak"] {
		t.Fatalf("findings not attributed to the injected functions: %v", findings)
	}
	regressions, _ := DiffBaseline(loaded, findings)
	if len(regressions) == 0 {
		t.Fatal("injected escape/BCE regression not detected")
	}
	joined := strings.Join(regressions, "\n")
	for _, want := range []string{"escape", "bce", "Gather", "Leak"} {
		if !strings.Contains(joined, want) {
			t.Errorf("regression report missing %q:\n%s", want, joined)
		}
	}

	// Accepting the new state clears the diff again.
	base = BuildBaseline(goVersion, []string{"./internal/loops"}, findings)
	if reg, _ := DiffBaseline(base, findings); len(reg) != 0 {
		t.Errorf("updated baseline still reports regressions: %v", reg)
	}

	// Reverting the code turns the accepted entries into improvements.
	if err := os.WriteFile(kernel, []byte(cleanKernel), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err = RunCompilerDiag(root, []string{"./internal/loops"})
	if err != nil {
		t.Fatal(err)
	}
	reg, improvements := DiffBaseline(base, findings)
	if len(reg) != 0 {
		t.Errorf("reverted tree reported regressions: %v", reg)
	}
	if len(improvements) == 0 {
		t.Error("reverted tree should report improvements against the fat baseline")
	}
}

func TestClassifyDiag(t *testing.T) {
	cases := []struct {
		msg, want string
	}{
		{"x escapes to heap", "escape"},
		{"moved to heap: nodes", "escape"},
		{"make([]float64, n) escapes to heap", "escape"},
		{"Found IsInBounds", "bce"},
		{"Found IsSliceInBounds", "bce"},
		{"can inline Sum", ""},
		{"inlining call to Sum", ""},
		{"leaking param: xs", ""},
	}
	for _, tc := range cases {
		if got := classifyDiag(tc.msg); got != tc.want {
			t.Errorf("classifyDiag(%q) = %q, want %q", tc.msg, got, tc.want)
		}
	}
}

// TestDiffBaselineCountSemantics checks that the diff keys on
// (file, func, kind, message) counts: line churn is invisible, extra
// copies of a known diagnostic are regressions.
func TestDiffBaselineCountSemantics(t *testing.T) {
	f := func(line int) CompilerFinding {
		return CompilerFinding{
			File: "internal/loops/k.go", Line: line, Col: 3,
			Func: "Kernel", Kind: "bce", Message: "Found IsInBounds",
		}
	}
	base := BuildBaseline("go1.24.0", nil, []CompilerFinding{f(10), f(20)})

	// Same counts at different lines: clean.
	if reg, imp := DiffBaseline(base, []CompilerFinding{f(11), f(31)}); len(reg) != 0 || len(imp) != 0 {
		t.Errorf("line churn flagged: reg=%v imp=%v", reg, imp)
	}
	// One extra copy: regression.
	if reg, _ := DiffBaseline(base, []CompilerFinding{f(10), f(20), f(30)}); len(reg) != 1 {
		t.Errorf("extra copy not flagged: %v", reg)
	}
	// One fewer: improvement only.
	reg, imp := DiffBaseline(base, []CompilerFinding{f(10)})
	if len(reg) != 0 || len(imp) != 1 {
		t.Errorf("disappearance misreported: reg=%v imp=%v", reg, imp)
	}
	// A different function with the same message is a new key.
	other := CompilerFinding{File: "internal/loops/k.go", Line: 50, Col: 3,
		Func: "Other", Kind: "bce", Message: "Found IsInBounds"}
	if reg, _ := DiffBaseline(base, []CompilerFinding{f(10), f(20), other}); len(reg) != 1 {
		t.Errorf("new function key not flagged: %v", reg)
	}
}

// TestRepoBaselineIsCurrent guards the checked-in baseline itself: the
// real packages it scopes must diff clean against it, so a PR that
// regresses codegen cannot pass `make check` by skipping -update-baseline.
func TestRepoBaselineIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the kernel packages with diagnostic flags")
	}
	root, base := repoCompilerBaseline(t)
	findings, err := RunCompilerDiag(root, base.Packages)
	if err != nil {
		t.Fatal(err)
	}
	goVersion, err := GoVersion(root)
	if err != nil {
		t.Fatal(err)
	}
	if base.GoVersion != goVersion {
		t.Skipf("baseline recorded under %s, running %s", base.GoVersion, goVersion)
	}
	regressions, _ := DiffBaseline(base, findings)
	if len(regressions) != 0 {
		t.Errorf("hot packages regressed against the checked-in baseline:\n%s",
			strings.Join(regressions, "\n"))
	}
}

// repoCompilerBaseline returns the repository root and its checked-in
// compilerdiag baseline.
func repoCompilerBaseline(t *testing.T) (string, CompilerBaseline) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadJSON[CompilerBaseline](filepath.Join(root, "internal", "analysis", "baseline", "compilerdiag.json"))
	if err != nil {
		t.Fatalf("checked-in baseline missing: %v", err)
	}
	return root, base
}

// TestCompilerDiagCoversEveryHotPackage holds the firewall's scope to
// the hot markers: a package with an //ookami:hot function in a non-test
// file must be in the checked-in baseline's packages and in the default
// scope, since compilerdiag is the only gate on a hot function's
// allocations.
func TestCompilerDiagCoversEveryHotPackage(t *testing.T) {
	root, base := repoCompilerBaseline(t)
	dirs, err := resolvePatterns(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var hot []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(f.Decls, func(d ast.Decl) bool {
				fd, ok := d.(*ast.FuncDecl)
				return ok && funcMarker(fd.Doc) == "hot"
			}) {
				rel, err := filepath.Rel(root, dir)
				if err != nil {
					t.Fatal(err)
				}
				hot = append(hot, "./"+filepath.ToSlash(rel))
				break
			}
		}
	}
	if len(hot) == 0 {
		t.Fatal("found no //ookami:hot function in the module")
	}
	for _, pattern := range hot {
		if !slices.Contains(base.Packages, pattern) {
			t.Errorf("%s holds //ookami:hot functions but is not in compilerdiag.json's packages", pattern)
		}
		if !slices.Contains(CompilerDiagPatterns(), pattern) {
			t.Errorf("%s holds //ookami:hot functions but is not in the default compilerdiag scope; add it to MarkedHotPackages", pattern)
		}
	}
}
