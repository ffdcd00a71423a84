package purity

import (
	"fmt"
	"strings"
	"testing"

	"ookami/internal/analysis"
)

// TestPurityEndToEndInjectedImpurities materializes a module on disk
// with one deliberately injected impurity per analyzer, runs the full
// vet pipeline over it exactly as the CLI does, and asserts each
// analyzer fires at its injection site — and nowhere else. This is the
// proof that adding any of these shapes under a certified or hot
// function in the real tree fails `make check`.
func TestPurityEndToEndInjectedImpurities(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module tempmod\n\ngo 1.22\n",

		// purity: a certified model entry point that reaches a global
		// write through a helper.
		"internal/model/model.go": `package model

var evals int

func bump() { evals++ }

//ookami:pure
func Predict(n int) float64 {
	bump()
	return float64(n) * 1.5
}
`,

		// globalmut: a hot kernel that appends to a package-level log.
		"internal/kern/kern.go": `package kern

var trace []int

//ookami:hot
func Triad(a, b, c []float64, s float64) {
	trace = append(trace, len(a))
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}
`,

		// hiddeninput: a certified entry point keyed on an env var.
		"internal/cfg/cfg.go": `package cfg

import "os"

//ookami:pure
func Threads() string {
	return os.Getenv("OMP_NUM_THREADS")
}
`,

		// recvmut: value receiver mutating through an embedded slice.
		"internal/grid/grid.go": `package grid

type Grid struct {
	v []float64
}

func (g Grid) Zero() {
	for i := range g.v {
		g.v[i] = 0
	}
}
`,
	})

	diags, err := analysis.Vet(newLoader(t, root), []string{"./..."}, Analyzers())
	if err != nil {
		t.Fatalf("vet: %v", err)
	}

	wantAt := map[string]string{
		"purity":      "internal/model/model.go:8",
		"globalmut":   "internal/kern/kern.go:6",
		"hiddeninput": "internal/cfg/cfg.go:6",
		"recvmut":     "internal/grid/grid.go:9",
	}
	seen := map[string][]string{}
	for _, d := range diags {
		seen[d.Analyzer] = append(seen[d.Analyzer],
			fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line))
	}
	for analyzer, site := range wantAt {
		hit := false
		for _, at := range seen[analyzer] {
			if strings.HasSuffix(at, site) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s did not fire at %s; fired at %v", analyzer, site, seen[analyzer])
		}
	}
	for analyzer := range seen {
		if _, injected := wantAt[analyzer]; !injected {
			t.Errorf("unexpected analyzer %s fired: %v", analyzer, seen[analyzer])
		}
	}

	// The purity finding on Predict must carry the helper in its chain.
	for _, d := range diags {
		if d.Analyzer == "purity" && strings.HasSuffix(d.Pos.Filename, "model.go") &&
			!strings.Contains(d.Message, "bump") {
			t.Errorf("purity chain should route through bump: %s", d.Message)
		}
	}
}
