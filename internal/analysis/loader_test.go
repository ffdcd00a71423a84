package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func parseForInclude(t *testing.T, src string) bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	return fileIncluded(f)
}

func TestFileIncludedEvaluatesBuildConstraints(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"no constraint", "package p\n", true},
		{"race excluded", "//go:build race\n\npackage p\n", false},
		{"not-race included", "//go:build !race\n\npackage p\n", true},
		{"host GOOS included", "//go:build " + runtime.GOOS + "\n\npackage p\n", true},
		{"host GOARCH included", "//go:build " + runtime.GOARCH + "\n\npackage p\n", true},
		{"foreign GOOS excluded", "//go:build plan9\n\npackage p\n", false},
		{"or with host arm", "//go:build race || " + runtime.GOOS + "\n\npackage p\n", true},
		{"and with optional tag", "//go:build " + runtime.GOOS + " && integration\n\npackage p\n", false},
		{"constraint after package ignored", "package p\n\n//go:build race\n", true},
	}
	for _, tc := range cases {
		if got := parseForInclude(t, tc.src); got != tc.want {
			t.Errorf("%s: fileIncluded = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLoadDirSkipsExcludedFiles reproduces the race-gated test idiom —
// mutually exclusive `//go:build race` / `//go:build !race` files
// declaring the same constant — which must type-check cleanly because
// only one side is ever part of a real build configuration.
func TestLoadDirSkipsExcludedFiles(t *testing.T) {
	root := t.TempDir()
	pkg := filepath.Join(root, "p")
	if err := os.Mkdir(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"go.mod":          "module example.test\n\ngo 1.24\n",
		"p/p.go":          "package p\n\nfunc Mode() string { return mode }\n",
		"p/race.go":       "//go:build race\n\npackage p\n\nconst mode = \"race\"\n",
		"p/norace.go":     "//go:build !race\n\npackage p\n\nconst mode = \"norace\"\n",
		"p/other_os.go":   "//go:build plan9\n\npackage p\n\nconst mode = \"plan9\"\n",
		"p/race_test.go":  "//go:build race\n\npackage p\n\nconst testMode = \"race\"\n",
		"p/plain_test.go": "//go:build !race\n\npackage p\n\nconst testMode = \"norace\"\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadDir(pkg)
	if err != nil {
		t.Fatalf("LoadDir with constraint-excluded duplicates: %v", err)
	}
	for _, u := range units {
		for _, f := range u.AllFiles {
			name := l.Fset().Position(f.Package).Filename
			switch filepath.Base(name) {
			case "race.go", "other_os.go", "race_test.go":
				t.Errorf("unit %s type-checked excluded file %s", u.Path, name)
			}
		}
	}
}

// TestLoadDirExternalTestSeesExportTest reproduces the export_test.go
// idiom: the external test package calls a helper that an in-package test
// file exports, and passes it a value from another module package that
// imports the package under test. `go test` compiles both against the
// test variant of p, and so must the loader.
func TestLoadDirExternalTestSeesExportTest(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"p", "q"} {
		if err := os.Mkdir(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]string{
		"go.mod":             "module example.test\n\ngo 1.24\n",
		"p/p.go":             "package p\n\ntype T int\n\nfunc (t T) double() T { return 2 * t }\n",
		"p/export_test.go":   "package p\n\nfunc (t T) Double() T { return t.double() }\n",
		"q/q.go":             "package q\n\nimport \"example.test/p\"\n\nfunc One() p.T { return 1 }\n",
		"p/external_test.go": "package p_test\n\nimport (\n\t\"example.test/p\"\n\t\"example.test/q\"\n)\n\nvar two p.T = q.One().Double()\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(root, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// Load q first, so the plain p is cached before the external test
	// package needs the variant.
	if _, err := l.LoadDir(filepath.Join(root, "q")); err != nil {
		t.Fatal(err)
	}
	units, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("LoadDir with an export_test.go helper: %v", err)
	}
	if got := units[len(units)-1].Path; got != "example.test/p_test" {
		t.Errorf("last unit %s, want the external test package", got)
	}
}
