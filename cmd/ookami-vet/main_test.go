package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The CLI runs in process through run, with the module directory and
// the streams injected, so the standard library is type-checked once
// per test binary. One test re-executes the binary as ookami-vet
// (TestMain dispatches on an env var), so the exit code and stream
// separation are also tested exactly as a caller sees them.

func TestMain(m *testing.M) {
	if os.Getenv("OOKAMI_VET_BE_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// runVet runs the CLI in process on the module at dir with args.
func runVet(t *testing.T, dir string, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(dir, args, &out, &errb)
	return out.String(), errb.String(), code
}

// writeFiles materializes files under root, creating directories.
func writeFiles(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// newModule materializes a temp module holding files.
func newModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	writeFiles(t, root, map[string]string{"go.mod": "module tempmod\n\ngo 1.22\n"})
	writeFiles(t, root, files)
	return root
}

// baselineFiles are the firewalls' baselines, relative to the module root.
var baselineFiles = []string{
	"internal/analysis/baseline/compilerdiag.json",
	"internal/analysis/baseline/concsurface.json",
	"internal/analysis/baseline/parsafe.json",
}

// scopeBaselines writes scope-only baselines for the named firewalls
// (all three by default), each recording pkgs (module-relative
// directories) as its packages: the way a module narrows a firewall
// below the default scope before its first -update-baseline.
func scopeBaselines(t *testing.T, root string, pkgs []string, only ...string) {
	t.Helper()
	var patterns []string
	for _, p := range pkgs {
		patterns = append(patterns, "./"+p)
	}
	scopes := map[string][]string{"compilerdiag": patterns, "concsurface": pkgs, "parsafe": pkgs}
	for name, scope := range scopes {
		if len(only) > 0 && !slices.Contains(only, name) {
			continue
		}
		data, err := json.Marshal(map[string][]string{"packages": scope})
		if err != nil {
			t.Fatal(err)
		}
		writeFiles(t, root, map[string]string{"internal/analysis/baseline/" + name + ".json": string(data)})
	}
}

// recordBaselines scopes all three firewalls to pkgs and records them.
func recordBaselines(t *testing.T, root string, pkgs ...string) {
	t.Helper()
	scopeBaselines(t, root, pkgs)
	if _, stderr, code := runVet(t, root, "-update-baseline"); code != 0 {
		t.Fatalf("-update-baseline failed: code=%d stderr=%q", code, stderr)
	}
}

const dirtyKernel = `package loops

func Kernel(n int) []float64 {
	var out []float64
	for i := 0; i < n; i++ {
		out = append(out, float64(i))
	}
	return out
}
`

// writeModule materializes a temp module with one dirty kernel file.
func writeModule(t *testing.T) string {
	t.Helper()
	return newModule(t, map[string]string{"internal/loops/kernel.go": dirtyKernel})
}

// TestCLIFindingsExitNonzero re-executes the test binary as the
// CLI: the process must exit 1, with the finding on stdout and the
// summary on stderr only.
func TestCLIFindingsExitNonzero(t *testing.T) {
	root := writeModule(t)
	recordBaselines(t, root, "internal/loops")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "OOKAMI_VET_BE_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err = cmd.Run()
	stdout, stderr := out.String(), errb.String()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want code 1\nstdout:\n%s\nstderr:\n%s", err, stdout, stderr)
	}
	if !strings.Contains(stdout, "hotappend") || strings.Contains(stdout, "finding(s)") {
		t.Errorf("stdout must hold the finding and no summary:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") || strings.Contains(stderr, "hotappend") {
		t.Errorf("stderr must hold the summary and no finding:\n%s", stderr)
	}
}

func TestCLIJSONOutput(t *testing.T) {
	root := writeModule(t)
	recordBaselines(t, root, "internal/loops")
	stdout, _, code := runVet(t, root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly one ndjson line, got %d:\n%s", len(lines), stdout)
	}
	var f jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, lines[0])
	}
	if f.Analyzer != "hotappend" || f.File != "internal/loops/kernel.go" || f.Line == 0 || f.Message == "" {
		t.Errorf("unexpected finding payload: %+v", f)
	}
}

const cleanKernel = `package loops

func Kernel(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(i))
	}
	return out
}
`

func TestCLICleanTreeExitsZero(t *testing.T) {
	root := newModule(t, map[string]string{"internal/loops/kernel.go": cleanKernel})
	recordBaselines(t, root, "internal/loops")
	stdout, stderr, code := runVet(t, root, "./...")
	if code != 0 || stdout != "" {
		t.Errorf("clean tree: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	root := writeModule(t)
	_, stderr, code := runVet(t, root, "-only", "no-such-analyzer", "./...")
	if code == 0 || !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("bad -only: code=%d stderr=%q", code, stderr)
	}
	// Firewall scopes live in the baselines, not on the command line.
	_, stderr, code = runVet(t, root, "-update-baseline", "./...")
	if code == 0 || !strings.Contains(stderr, "takes no packages") {
		t.Errorf("-update-baseline with packages: code=%d stderr=%q", code, stderr)
	}
	// A missing baseline is a hard error pointing at -update-baseline,
	// in a full run as well as for one firewall.
	for _, args := range [][]string{{"./..."}, {"-only", "compilerdiag"}} {
		_, stderr, code = runVet(t, root, args...)
		if code == 0 || !strings.Contains(stderr, "baseline") || !strings.Contains(stderr, "-update-baseline") {
			t.Errorf("%v with a missing baseline: code=%d stderr=%q", args, code, stderr)
		}
	}
}

func TestCLICompilerDiagRoundtrip(t *testing.T) {
	root := writeModule(t)
	recordBaselines(t, root, "internal/loops")
	stdout, stderr, code := runVet(t, root, "-only", "compilerdiag")
	if code != 0 {
		t.Fatalf("clean diff failed: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	// Inject an escape into the hot function and require exit 1.
	writeFiles(t, root, map[string]string{"internal/loops/kernel.go": dirtyKernel + `
func Leak(n int) *int {
	x := n
	return &x
}
`})
	stdout, _, code = runVet(t, root, "-only", "compilerdiag")
	if code != 1 {
		t.Fatalf("regression not detected: code=%d stdout=%q", code, stdout)
	}
	if !strings.Contains(stdout, "escape") || !strings.Contains(stdout, "Leak") {
		t.Errorf("regression report incomplete:\n%s", stdout)
	}
}

func TestCLIListMentionsEveryAnalyzer(t *testing.T) {
	root := writeModule(t)
	stdout, _, code := runVet(t, root, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{
		"determinism", "hotappend", "hotdefer", "hotiface", "hotreduce",
		"lockorder", "goleak", "atomicmix", "wgmisuse", "locksync",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list missing %s:\n%s", name, stdout)
		}
	}
}

// writeConcModule materializes a temp module with a lock-order inversion
// and a leaked goroutine in separate packages.
func writeConcModule(t *testing.T) string {
	t.Helper()
	return newModule(t, map[string]string{
		"internal/link/link.go": `package link

import "sync"

type Link struct {
	a, b sync.Mutex
}

func (l *Link) Fwd() {
	l.a.Lock()
	defer l.a.Unlock()
	l.b.Lock()
	defer l.b.Unlock()
}

func (l *Link) Rev() {
	l.b.Lock()
	defer l.b.Unlock()
	l.a.Lock()
	defer l.a.Unlock()
}
`,
		"internal/spawn/spawn.go": spawnOnce,
	})
}

const spawnOnce = `package spawn

var sink int

func Fire() {
	go func() {
		sink++
	}()
}
`

func TestCLIOnlySelectsConcAnalyzer(t *testing.T) {
	root := writeConcModule(t)
	stdout, _, code := runVet(t, root, "-only", "lockorder", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "lockorder") || !strings.Contains(stdout, "link.go") {
		t.Errorf("lockorder finding missing:\n%s", stdout)
	}
	if strings.Contains(stdout, "goleak") {
		t.Errorf("-only lockorder must not run goleak:\n%s", stdout)
	}
}

func TestCLIJSONOrderedByFileLineAnalyzer(t *testing.T) {
	root := writeConcModule(t)
	recordBaselines(t, root, "internal/link", "internal/spawn")
	// Grow the concurrency surface too, so firewall regressions
	// interleave with analyzer findings in the one ndjson stream.
	writeFiles(t, root, map[string]string{"internal/spawn/spawn.go": spawnOnce + spawnTwice})
	stdout, _, code := runVet(t, root, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, stdout)
	}
	var prev *jsonFinding
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var f jsonFinding
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("invalid ndjson line: %v\n%s", err, line)
		}
		if prev != nil {
			if f.File < prev.File ||
				(f.File == prev.File && f.Line < prev.Line) ||
				(f.File == prev.File && f.Line == prev.Line && f.Col == prev.Col && f.Analyzer < prev.Analyzer) {
				t.Errorf("findings out of (file, line, col, analyzer) order: %+v after %+v", f, *prev)
			}
		}
		prev = &f
	}
	if prev == nil {
		t.Fatal("no findings emitted")
	}
}

const spawnTwice = `
func FireTwice() {
	go func() {
		sink += 2
	}()
}
`

func TestCLIConcSurfaceRoundtrip(t *testing.T) {
	root := writeConcModule(t)
	recordBaselines(t, root, "internal/link", "internal/spawn")
	data, err := os.ReadFile(filepath.Join(root, "internal", "analysis", "baseline", "concsurface.json"))
	if err != nil || !strings.Contains(string(data), "go func literal") {
		t.Fatalf("baseline not recorded at default path: err=%v\n%s", err, data)
	}

	stdout, stderr, code := runVet(t, root, "-only", "concsurface")
	if code != 0 {
		t.Fatalf("clean diff failed: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}

	// Grow the surface: a second spawn site must trip the gate.
	writeFiles(t, root, map[string]string{"internal/spawn/spawn.go": spawnOnce + spawnTwice})
	stdout, stderr, code = runVet(t, root, "-only", "concsurface")
	if code != 1 {
		t.Fatalf("surface growth not detected: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "FireTwice") || !strings.Contains(stdout, "new concurrency site") {
		t.Errorf("growth report incomplete:\n%s", stdout)
	}
	if !strings.Contains(stderr, "-update-baseline") {
		t.Errorf("growth summary must point at -update-baseline:\n%s", stderr)
	}

	// With -json the growth is a finding of the concsurface gate,
	// positioned at the new site.
	stdout, _, code = runVet(t, root, "-json", "-only", "concsurface")
	var f jsonFinding
	if err := json.Unmarshal([]byte(strings.TrimSpace(stdout)), &f); code != 1 || err != nil {
		t.Fatalf("-json growth: code=%d err=%v\n%s", code, err, stdout)
	}
	if f.Analyzer != "concsurface" || f.File != "internal/spawn/spawn.go" || f.Line != 12 ||
		!strings.HasPrefix(f.Message, "new concurrency site in FireTwice") {
		t.Errorf("unexpected firewall finding: %+v", f)
	}
}

func TestCLIListShowsGatesForAllSuites(t *testing.T) {
	root := writeModule(t)
	stdout, _, code := runVet(t, root, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	// One row per analyzer with its gate column: conc analyzers run in
	// the check gate, purity analyzers additionally feed -parsafe, and
	// the three firewalls are listed as their own gates.
	wantRows := map[string]string{
		"lockorder":    "check",
		"goleak":       "check",
		"purity":       "check,parsafe",
		"globalmut":    "check,parsafe",
		"hiddeninput":  "check,parsafe",
		"recvmut":      "check,parsafe",
		"compilerdiag": "compilerdiag",
		"concsurface":  "concsurface",
		"parsafe":      "parsafe",
	}
	for name, gate := range wantRows {
		found := false
		for _, line := range strings.Split(stdout, "\n") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[0] == name && fields[1] == gate {
				found = true
			}
		}
		if !found {
			t.Errorf("-list missing row %q with gate %q:\n%s", name, gate, stdout)
		}
	}
}

// parsafeFiles are a certified entry point reaching a helper package.
var parsafeFiles = map[string]string{
	"internal/simd/simd.go": `package simd

//ookami:pure
func Store(xs []float64, i int, v float64) {
	xs[i] = v
}
`,
	"internal/kern/kern.go": `package kern

import "tempmod/internal/simd"

//ookami:pure
func Triad(y, x []float64, s float64) {
	for i := range y {
		simd.Store(y, i, s*x[i])
	}
}
`,
}

// impureStore gives simd.Store a global write.
const impureStore = `package simd

var stores int

//ookami:pure
func Store(xs []float64, i int, v float64) {
	stores++
	xs[i] = v
}
`

func TestCLIParsafeRoundtrip(t *testing.T) {
	root := newModule(t, parsafeFiles)
	recordBaselines(t, root, "internal/kern", "internal/simd")
	stdout, stderr, code := runVet(t, root, "-only", "parsafe")
	if code != 0 {
		t.Fatalf("clean diff failed: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}

	// Inject a global write under the certified entry point, through the
	// helper package: the gate must fail and print the effect chain.
	writeFiles(t, root, map[string]string{"internal/simd/simd.go": impureStore})
	stdout, stderr, code = runVet(t, root, "-only", "parsafe")
	if code != 1 {
		t.Fatalf("injected global write not detected: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	for _, part := range []string{"Triad", "global-write", "Store", "writes global stores"} {
		if !strings.Contains(stdout, part) {
			t.Errorf("regression output missing %q:\n%s", part, stdout)
		}
	}
	if !strings.Contains(stderr, "-update-baseline") {
		t.Errorf("failure summary must point at -update-baseline:\n%s", stderr)
	}
}

// allGatesFiles is a module every gate passes on: a kernel package for
// compilerdiag, a joined spawn for concsurface, and the certified pair
// for parsafe.
func allGatesFiles() map[string]string {
	files := map[string]string{
		"internal/loops/kernel.go": cleanKernel,
		"internal/spawn/spawn.go": `package spawn

import "sync"

func Fire() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
`,
	}
	for name, src := range parsafeFiles {
		files[name] = src
	}
	return files
}

var allGatesScope = []string{"internal/kern", "internal/loops", "internal/simd", "internal/spawn"}

// TestCLIOneRunFailsOnAnyGate plants one fault per row in a module every
// gate passes on. The last three rows are the faults of rules deleted
// because a kept gate catches them: compilerdiag sees a loop allocation
// and an escaping boxed argument (hotalloc, hotiface's boxing rule), and
// concsurface sees an unbuffered channel (synchygiene's mpi rule).
func TestCLIOneRunFailsOnAnyGate(t *testing.T) {
	faults := []struct {
		name, file, src, want string
	}{
		{"analyzer", "internal/loops/kernel.go", dirtyKernel, "[hotappend]"},
		{"compilerdiag", "internal/loops/leak.go", "package loops\n\nfunc Leak(n int) *int {\n\tx := n\n\treturn &x\n}\n",
			"new escape diagnostic in hot function Leak"},
		{"concsurface", "internal/spawn/more.go", "package spawn\n\nfunc More(done chan int) {\n\tgo func() { done <- 1 }()\n\t<-done\n}\n",
			"new concurrency site in More"},
		{"parsafe", "internal/simd/simd.go", impureStore, "certified entry point Triad gained global-write"},
		{"compilerdiag-loop-make", "internal/loops/scratch.go", `package loops

func Scratch(xs []float64, n int) int {
	s := 0
	for range xs {
		buf := make([]float64, n)
		s += len(buf)
	}
	return s
}
`, `new escape diagnostic in hot function Scratch: "make([]float64, n) escapes to heap"`},
		{"compilerdiag-boxed-arg", "internal/loops/box.go", `package loops

func keep(dst []any, i int, v any) { dst[i] = v }

func Box(dst []any, xs []float64) {
	for i, x := range xs {
		keep(dst, i, x)
	}
}
`, `new escape diagnostic in hot function Box: "x escapes to heap"`},
		{"concsurface-unbuffered-chan", "internal/spawn/pipe.go", "package spawn\n\nfunc Pipe() chan int {\n\treturn make(chan int)\n}\n",
			"new concurrency site in Pipe: [chan] make chan int (unbuffered)"},
	}
	clean := newModule(t, allGatesFiles())
	recordBaselines(t, clean, allGatesScope...)
	if stdout, stderr, code := runVet(t, clean, "./..."); code != 0 {
		t.Fatalf("clean module: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.CopyFS(root, os.DirFS(clean)); err != nil {
				t.Fatal(err)
			}
			writeFiles(t, root, map[string]string{f.file: f.src})
			stdout, stderr, code := runVet(t, root, "./...")
			if code != 1 || !strings.Contains(stdout, f.want) {
				t.Errorf("%s fault: code=%d, want 1 with %q\nstdout:\n%s\nstderr:\n%s", f.name, code, f.want, stdout, stderr)
			}
		})
	}
}

func TestCLIUpdateBaselineRecordsAllAndIsIdempotent(t *testing.T) {
	root := newModule(t, allGatesFiles())
	scopeBaselines(t, root, allGatesScope)
	if _, stderr, code := runVet(t, root, "-update-baseline"); code != 0 {
		t.Fatalf("-update-baseline failed: code=%d stderr=%q", code, stderr)
	}
	first := map[string][]byte{}
	for _, name := range baselineFiles {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"entries": [`)) {
			t.Errorf("%s was not recorded:\n%s", name, data)
		}
		first[name] = data
	}
	if _, stderr, code := runVet(t, root, "-update-baseline"); code != 0 {
		t.Fatalf("second -update-baseline failed: code=%d stderr=%q", code, stderr)
	}
	for _, name := range baselineFiles {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, first[name]) {
			t.Errorf("re-recording %s changed it:\n%s\nvs\n%s", name, first[name], data)
		}
	}
}

func TestCLIOnlyRunsTheSelectedFirewall(t *testing.T) {
	// The module has analyzer findings and no compilerdiag or parsafe
	// baseline: -only concsurface must see none of that.
	root := writeConcModule(t)
	scopeBaselines(t, root, []string{"internal/link", "internal/spawn"}, "concsurface")
	if _, stderr, code := runVet(t, root, "-update-baseline", "-only", "concsurface"); code != 0 {
		t.Fatalf("-update-baseline -only concsurface failed: code=%d stderr=%q", code, stderr)
	}
	for _, name := range []string{baselineFiles[0], baselineFiles[2]} {
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(name))); err == nil {
			t.Errorf("-only concsurface recorded %s", name)
		}
	}
	stdout, stderr, code := runVet(t, root, "-only", "concsurface")
	if code != 0 || stdout != "" {
		t.Fatalf("-only concsurface on a clean surface: code=%d stdout=%q stderr=%q", code, stdout, stderr)
	}
	writeFiles(t, root, map[string]string{"internal/spawn/spawn.go": spawnOnce + spawnTwice})
	stdout, _, code = runVet(t, root, "-only", "concsurface")
	if code != 1 || strings.Count(strings.TrimSpace(stdout), "\n") != 0 || !strings.Contains(stdout, "new concurrency site") {
		t.Errorf("-only concsurface must report the one growth and nothing else: code=%d\n%s", code, stdout)
	}
}
