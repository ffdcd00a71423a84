package bench_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"

	"ookami/internal/analysis"
)

// TestKernelsAndProductsDoNotImportBench walks the non-test import
// graph from source with go/build and fails if a kernel package, or the
// serve, explain or figures layer, reaches the harness. The workload
// list lives in this package, so only cmd/ookami-bench needs to link it.
func TestKernelsAndProductsDoNotImportBench(t *testing.T) {
	const module, harness = "ookami/", "ookami/internal/bench"
	root := filepath.Join("..", "..")
	imports := map[string][]string{} // import path -> its imports, memoized
	importsOf := func(path string) []string {
		if imps, ok := imports[path]; ok {
			return imps
		}
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		imports[path] = pkg.Imports
		return pkg.Imports
	}
	starts := append([]string{"internal/serve", "internal/explain", "internal/figures"}, analysis.KernelPackages...)
	for _, start := range starts {
		start = module + start
		from := map[string]string{start: ""} // breadth-first parent links
		queue := []string{start}
		for len(queue) > 0 {
			p := queue[0]
			queue = queue[1:]
			for _, imp := range importsOf(p) {
				if _, seen := from[imp]; seen || !strings.HasPrefix(imp, module) {
					continue
				}
				from[imp] = p
				if imp != harness {
					queue = append(queue, imp)
					continue
				}
				chain := []string{imp}
				for q := p; q != ""; q = from[q] {
					chain = append([]string{q}, chain...)
				}
				t.Errorf("%s imports the bench harness: %s", start, strings.Join(chain, " -> "))
			}
		}
	}
}
