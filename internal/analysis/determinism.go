package analysis

import (
	"go/ast"
	"go/types"
)

// GoldenPackages are the packages whose output is pinned by golden files
// (results/*.txt and results/*.csv) or checksum references; any
// nondeterminism here silently corrupts the reproduction, the exact
// benchmark-harness failure mode the ECM-modeling literature warns about.
var GoldenPackages = []string{
	"internal/figures",
	"internal/hpcc",
	"internal/npb",
}

// Determinism flags sources of run-to-run variation in non-test files of
// golden-producing packages: time.Now, the global math/rand generator,
// and bare iteration over maps (whose order Go randomizes on purpose).
type Determinism struct{}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (Determinism) Doc() string {
	return "flags time.Now, global math/rand and map iteration in golden-producing packages"
}

// Run implements Analyzer.
func (Determinism) Run(p *Package) []Diagnostic {
	golden := false
	for _, g := range GoldenPackages {
		if PathHasSuffix(p.Path, g) {
			golden = true
			break
		}
	}
	if !golden {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := CalleeFunc(p, n)
				if fn == nil {
					return true
				}
				switch pkg := FuncPkgPath(fn); {
				case pkg == "time" && fn.Name() == "Now":
					diags = append(diags, p.Diag(Determinism{}.Name(), n,
						"time.Now in golden-producing package %s makes output depend on the wall clock", p.Path))
				case (pkg == "math/rand" || pkg == "math/rand/v2") && RecvNamed(fn) == nil &&
					fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewPCG" && fn.Name() != "NewChaCha8":
					diags = append(diags, p.Diag(Determinism{}.Name(), n,
						"global math/rand.%s draws from shared, effectively unseeded state; use rand.New(rand.NewSource(seed))", fn.Name()))
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						diags = append(diags, p.Diag(Determinism{}.Name(), n,
							"map iteration order is randomized; golden output requires iterating sorted keys"))
					}
				}
			}
			return true
		})
	}
	return diags
}
