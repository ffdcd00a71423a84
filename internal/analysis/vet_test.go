package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// newLoader builds a fresh loader over the module at root.
func newLoader(t *testing.T, root string) *Loader {
	t.Helper()
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// writeTree materializes a file tree under a temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

var vetModule = map[string]string{
	"go.mod": "module tempmod\n\ngo 1.22\n",
	"bench_test.go": `package tempmod_test

import "testing"

func BenchmarkBad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = i * 2
	}
}
`,
	"cmd/app/main.go": `package main

import "os"

func main() {
	os.WriteFile("out.txt", nil, 0o644)
}
`,
	"internal/figures/gen.go": `package figures

import "time"

func Stamp() int64 { return time.Now().Unix() }
`,
	"internal/clean/clean.go": `package clean

func Add(a, b int) int { return a + b }
`,
}

// TestVetEndToEnd runs the full suite over a temp module and asserts the
// exact file:line:col findings, the way cmd/ookami-vet invokes it.
func TestVetEndToEnd(t *testing.T) {
	root := writeTree(t, vetModule)
	diags, err := Vet(newLoader(t, root), []string{"./..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"bench_test.go:5:6: [benchhygiene] BenchmarkBad has a b.N loop but never calls b.ReportAllocs()",
		"bench_test.go:7:3: [benchhygiene] benchmark loop discards its result into _; the timed work may be dead-code-eliminated — sink it",
		"cmd/app/main.go:6:2: [errcheck-lite] error return of WriteFile is dropped; handle it or assign it explicitly",
		"internal/figures/gen.go:5:29: [determinism] time.Now in golden-producing package tempmod/internal/figures makes output depend on the wall clock",
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.String() != want[i] {
			t.Errorf("finding %d:\n got %s\nwant %s", i, d, want[i])
		}
	}
}

// TestVetPatternScoping checks ./dir/... narrows the run.
func TestVetPatternScoping(t *testing.T) {
	root := writeTree(t, vetModule)
	diags, err := Vet(newLoader(t, root), []string{"./cmd/..."}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "errcheck-lite" {
		t.Fatalf("scoped run returned %v", diags)
	}
	if _, err := Vet(newLoader(t, root), []string{"./no/such/dir"}, All()); err == nil {
		t.Error("missing directory should error")
	}
}

// TestVetCleanModuleExitsQuiet ensures a clean tree yields no findings.
func TestVetCleanModuleExitsQuiet(t *testing.T) {
	root := writeTree(t, vetModule)
	diags, err := Vet(newLoader(t, root), []string{"./internal/clean"}, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("clean package produced findings: %v", diags)
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := writeTree(t, vetModule)
	nested := filepath.Join(root, "internal", "figures")
	got, err := FindModuleRoot(nested)
	if err != nil {
		t.Fatal(err)
	}
	// TempDir may contain symlinks on some platforms; compare resolved.
	wantResolved, _ := filepath.EvalSymlinks(root)
	gotResolved, _ := filepath.EvalSymlinks(got)
	if gotResolved != wantResolved {
		t.Errorf("FindModuleRoot = %s, want %s", got, root)
	}
}
