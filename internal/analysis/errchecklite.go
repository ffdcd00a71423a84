package analysis

import (
	"go/ast"
	"strings"
)

// ErrcheckLite flags dropped error returns in the command-line layer
// (packages under cmd/): an expression-statement call whose signature
// includes an error, or an error result assigned to the blank
// identifier. The CLIs are how the reproduction's artifacts get written
// to disk; a swallowed write error silently truncates results.
//
// fmt's Print family (stdout, errors are ignorable by convention) and
// the never-failing writers strings.Builder / bytes.Buffer are exempt.
type ErrcheckLite struct{}

// Name implements Analyzer.
func (ErrcheckLite) Name() string { return "errcheck-lite" }

// Doc implements Analyzer.
func (ErrcheckLite) Doc() string {
	return "flags dropped error returns in cmd/* packages"
}

// Run implements Analyzer.
func (ErrcheckLite) Run(p *Package) []Diagnostic {
	inCmd := false
	for _, seg := range strings.Split(p.Path, "/") {
		if seg == "cmd" {
			inCmd = true
			break
		}
	}
	if !inCmd {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok || len(errorResultIndexes(p, call)) == 0 || errExempt(p, call) {
					return true
				}
				diags = append(diags, p.Diag(ErrcheckLite{}.Name(), n,
					"error return of %s is dropped; handle it or assign it explicitly", calleeName(p, call)))
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || errExempt(p, call) {
					return true
				}
				for _, i := range errorResultIndexes(p, call) {
					if i >= len(n.Lhs) {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						diags = append(diags, p.Diag(ErrcheckLite{}.Name(), n.Lhs[i],
							"error return of %s is discarded into _; handle it", calleeName(p, call)))
					}
				}
			}
			return true
		})
	}
	return diags
}

// errExempt reports whether dropping the call's error is conventional.
func errExempt(p *Package, call *ast.CallExpr) bool {
	fn := CalleeFunc(p, call)
	if fn == nil {
		return false
	}
	if FuncPkgPath(fn) == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
		return true
	}
	if named := RecvNamed(fn); named != nil && named.Obj().Pkg() != nil {
		owner := named.Obj().Pkg().Path() + "." + named.Obj().Name()
		if owner == "strings.Builder" || owner == "bytes.Buffer" {
			return true
		}
	}
	return false
}

func calleeName(p *Package, call *ast.CallExpr) string {
	if fn := CalleeFunc(p, call); fn != nil {
		return fn.Name()
	}
	return "call"
}
