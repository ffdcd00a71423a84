package analysis

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Vet loads every package matched by patterns under the loader's module
// root, runs the analyzers over each unit, and returns the surviving
// findings sorted by position. Patterns follow the go tool's shape:
// "./..." (everything), "./dir/..." (a subtree), or "./dir" (one package
// directory). File positions are reported relative to the module root.
func Vet(l *Loader, patterns []string, analyzers []Analyzer) ([]Diagnostic, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleRoot := l.ModuleRoot
	dirs, err := resolvePatterns(moduleRoot, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, dir := range dirs {
		units, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			diags = append(diags, RunAll(u, analyzers)...)
		}
	}
	prefix := moduleRoot + string(filepath.Separator)
	for i := range diags {
		diags[i].Pos.Filename = strings.TrimPrefix(diags[i].Pos.Filename, prefix)
	}
	SortDiagnostics(diags)
	return diags, nil
}

// resolvePatterns expands package patterns into the sorted list of
// directories under moduleRoot that contain Go files.
func resolvePatterns(moduleRoot string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		if pat == "." || pat == "" {
			pat = moduleRoot
		} else if !filepath.IsAbs(pat) {
			pat = filepath.Join(moduleRoot, pat)
		}
		if !recursive {
			if !hasGoFiles(pat) {
				return nil, fmt.Errorf("analysis: no Go files in %s", pat)
			}
			add(pat)
			continue
		}
		err := filepath.WalkDir(pat, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
