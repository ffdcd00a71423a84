package purity

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ookami/internal/analysis"
)

// parsafeModule is a two-package module where the kernel package's
// certified entry point writes through its parameter via a helper in a
// second package — only the linked cross-package fixpoint can see that.
func parsafeModule(t *testing.T) string {
	return writeTree(t, map[string]string{
		"go.mod": "module tempmod\n\ngo 1.22\n",
		"internal/simd/simd.go": `package simd

// Store writes v into xs[base].
//ookami:pure
func Store(xs []float64, base int, v float64) {
	xs[base] = v
}
`,
		"internal/kern/kern.go": `package kern

import "tempmod/internal/simd"

// Triad is the certified kernel entry point.
//ookami:pure
func Triad(y, x []float64, s float64) {
	for i := range y {
		simd.Store(y, i, s*x[i])
	}
}

// Model is certified and effect-free.
//ookami:pure
func Model(n int) float64 {
	return float64(n) * 1.5
}
`,
	})
}

func TestCollectParsafeLinksAcrossPackages(t *testing.T) {
	root := parsafeModule(t)
	funcs, err := CollectParsafe(root, []string{"internal/kern", "internal/simd"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CertifiedFunc{}
	for _, cf := range funcs {
		byName[cf.Package+"."+cf.Func] = cf
	}
	if len(byName) != 3 {
		t.Fatalf("expected 3 certified funcs, got %v", funcs)
	}
	triad := byName["internal/kern.Triad"]
	if len(triad.Effects) != 1 || triad.Effects[0].Kind != "param-write" ||
		!strings.Contains(triad.Effects[0].Detail, "writes through parameter y") {
		t.Fatalf("Triad should carry the cross-package param write, got %+v", triad.Effects)
	}
	if eff := byName["internal/kern.Model"].Effects; len(eff) != 0 {
		t.Fatalf("Model should be effect-free, got %+v", eff)
	}
}

func TestParsafeBaselineRoundTripAndDiff(t *testing.T) {
	root := parsafeModule(t)
	pkgs := []string{"internal/kern", "internal/simd"}
	funcs, err := CollectParsafe(root, pkgs)
	if err != nil {
		t.Fatal(err)
	}

	base := BuildParsafeBaseline(pkgs, funcs)
	path := filepath.Join(root, "parsafe.json")
	if err := SaveParsafeBaseline(path, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParsafeBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if reg, notes := DiffParsafe(loaded, funcs); len(reg) != 0 || len(notes) != 0 {
		t.Fatalf("clean roundtrip should diff empty, got reg=%v notes=%v", reg, notes)
	}

	// Inject a wall-clock read under the certified entry point, through
	// the helper package: the diff must name the full chain.
	writeFile(t, root, "internal/simd/simd.go", `package simd

import "time"

//ookami:pure
func Store(xs []float64, base int, v float64) {
	xs[base] = v * jitter()
}

func jitter() float64 {
	return float64(time.Now().Nanosecond()%2) + 1
}
`)
	funcs2, err := CollectParsafe(root, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := DiffParsafe(loaded, funcs2)
	if len(reg) == 0 {
		t.Fatal("injected clock read must be a regression")
	}
	joined := strings.Join(reg, "\n")
	for _, part := range []string{"Triad", "clock-read", "Store", "jitter", "reads clock via time.Now"} {
		if !strings.Contains(joined, part) {
			t.Errorf("regression output missing %q:\n%s", part, joined)
		}
	}

	// Removing a certification marker is also a regression.
	writeFile(t, root, "internal/kern/kern.go", `package kern

import "tempmod/internal/simd"

//ookami:pure
func Triad(y, x []float64, s float64) {
	for i := range y {
		simd.Store(y, i, s*x[i])
	}
}

func Model(n int) float64 {
	return float64(n) * 1.5
}
`)
	funcs3, err := CollectParsafe(root, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	reg3, _ := DiffParsafe(loaded, funcs3)
	found := false
	for _, r := range reg3 {
		if strings.Contains(r, "Model") && strings.Contains(r, "no longer certified") ||
			strings.Contains(r, "Model is gone") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropping Model's marker must be a regression, got %v", reg3)
	}
}

func TestParsafeNewEntryPointIsANote(t *testing.T) {
	root := parsafeModule(t)
	pkgs := []string{"internal/kern", "internal/simd"}
	funcs, err := CollectParsafe(root, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	base := BuildParsafeBaseline(pkgs, funcs[:len(funcs)-1])
	reg, notes := DiffParsafe(base, funcs)
	if len(reg) != 0 {
		t.Fatalf("a newly certified function must not fail the gate, got %v", reg)
	}
	if len(notes) == 0 || !strings.Contains(strings.Join(notes, "\n"), "new certified entry point") {
		t.Fatalf("expected a new-entry-point note, got %v", notes)
	}
}

// TestRepoParsafeBaselineIsCurrent is the committed-tree gate: the
// checked-in baseline must match what -parsafe computes right now, and
// the certified surface must stay at or above the floor the worker-pool
// and caching work relies on.
func TestRepoParsafeBaselineIsCurrent(t *testing.T) {
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := CollectParsafe(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) < 15 {
		t.Fatalf("certified surface shrank below the 15-entry-point floor: %d", len(funcs))
	}
	for _, cf := range funcs {
		for _, eff := range cf.Effects {
			if eff.Impure {
				t.Errorf("%s.%s certifies with an impure effect: %s", cf.Package, cf.Func, eff.Chain)
			}
		}
	}
	base, err := LoadParsafeBaseline(filepath.Join(root, "internal", "analysis", "baseline", "parsafe.json"))
	if err != nil {
		t.Fatalf("loading committed baseline: %v", err)
	}
	reg, notes := DiffParsafe(base, funcs)
	if len(reg) != 0 {
		t.Errorf("committed baseline has regressions:\n%s", strings.Join(reg, "\n"))
	}
	for _, n := range notes {
		if strings.Contains(n, "new certified entry point") {
			t.Errorf("unrecorded certification (run `make baselines`): %s", n)
		}
	}
}
