package ookami_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// cmdRef matches a command path such as cmd/ookami-bench.
var cmdRef = regexp.MustCompile(`\bcmd/([A-Za-z0-9][A-Za-z0-9_-]*)`)

// TestDocsNameExistingCommands fails when a document, the Makefile, a
// CI workflow or a skill names a cmd/<name> directory that does not
// exist. The change log and the roadmap are history and plans, so they
// may name commands that are gone or not yet written.
func TestDocsNameExistingCommands(t *testing.T) {
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile"}
	for _, pattern := range []string{"docs/*.md", ".github/workflows/*.yml"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	err := filepath.WalkDir(".claude/skills", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "SKILL.md" {
			files = append(files, path)
		}
		return err
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdRef.FindAllSubmatch(data, -1) {
			dir := filepath.Join("cmd", string(m[1]))
			if info, err := os.Stat(dir); err != nil || !info.IsDir() {
				t.Errorf("%s names %s, which does not exist", file, dir)
			}
		}
	}
}
