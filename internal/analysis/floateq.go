package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// FloatEq flags == and != between floating-point expressions. Exact
// float equality is how the paper's ~6-ulp accuracy story gets silently
// miscounted; comparisons belong in the ULP helpers of
// internal/vmath/ulp.go (UlpDiff / MaxUlp / MeanUlp), which this
// analyzer treats as the one approved site.
//
// Comparisons where either side is a compile-time constant are exempt:
// those check configured values (machine specs, exact sentinels like 0),
// not computed results, and are exact by construction. Test files are
// exempt too — this repro's tests assert bit-exact reproducibility on
// purpose (golden figures, cross-rank determinism), which is precisely
// the comparison an accuracy-tolerant production path must not make.
type FloatEq struct{}

// ulpHelperFile is the approved home of float comparisons.
const ulpHelperFile = "ulp.go"

// Name implements Analyzer.
func (FloatEq) Name() string { return "floateq" }

// Doc implements Analyzer.
func (FloatEq) Doc() string {
	return "flags ==/!= between computed floating-point values outside internal/vmath/ulp.go"
}

// Run implements Analyzer.
func (FloatEq) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		if PathHasSuffix(strings.TrimSuffix(p.Path, "_test"), "internal/vmath") &&
			filepath.Base(p.Fset.Position(f.Pos()).Filename) == ulpHelperFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			x, y := p.Info.Types[be.X], p.Info.Types[be.Y]
			if x.Type == nil || y.Type == nil || !isFloat(x.Type) || !isFloat(y.Type) {
				return true
			}
			if x.Value != nil || y.Value != nil {
				return true // constant comparison: exact by construction
			}
			diags = append(diags, p.Diag(FloatEq{}.Name(), be,
				"floating-point %s between computed values; use vmath.UlpDiff or an explicit tolerance", be.Op))
			return true
		})
	}
	return diags
}
