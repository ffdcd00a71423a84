package purity

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ookami/internal/analysis"
)

// runFixture type-checks in-memory files as one package, runs the given
// analyzers through RunAll (so nolint filtering applies), and matches
// the findings against "// want <analyzer>" markers in the sources:
// every marker must be hit on its line, and no unmarked finding may
// appear. Same contract as the harness in internal/analysis/conc.
func runFixture(t *testing.T, path string, analyzers []analysis.Analyzer, files map[string]string) []analysis.Diagnostic {
	t.Helper()
	p, err := analysis.LoadSource(path, files)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	got := analysis.RunAll(p, analyzers)

	type key struct {
		file     string
		line     int
		analyzer string
	}
	want := map[key]int{}
	for name, src := range files {
		for i, line := range strings.Split(src, "\n") {
			_, marker, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, a := range strings.Fields(marker) {
				want[key{name, i + 1, a}]++
			}
		}
	}
	for _, d := range got {
		k := key{d.Pos.Filename, d.Pos.Line, d.Analyzer}
		if want[k] > 0 {
			want[k]--
			if want[k] == 0 {
				delete(want, k)
			}
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for k, n := range want {
		t.Errorf("missing %d diagnostic(s) of %s at %s:%d", n, k.analyzer, k.file, k.line)
	}
	return got
}

// newLoader builds a fresh loader over the module at root.
func newLoader(t *testing.T, root string) *analysis.Loader {
	t.Helper()
	l, err := analysis.NewLoader(root)
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

// writeFile overwrites one file inside a tree from writeTree.
func writeFile(t *testing.T, root, name, src string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPurityAnalyzersHaveDistinctNamesAndDocs(t *testing.T) {
	taken := map[string]bool{}
	for _, a := range analysis.All() {
		taken[a.Name()] = true
	}
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name() == "" || a.Doc() == "" {
			t.Errorf("analyzer %T missing name or doc", a)
		}
		if seen[a.Name()] {
			t.Errorf("duplicate analyzer name %q", a.Name())
		}
		if taken[a.Name()] {
			t.Errorf("analyzer name %q collides with the core suite", a.Name())
		}
		seen[a.Name()] = true
	}
	if len(seen) != 4 {
		t.Errorf("expected 4 purity analyzers, got %d", len(seen))
	}
}
