package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// BenchHygiene audits the benchmark harness (files named bench_test.go)
// for the two classic false-speedup bugs:
//
//   - a b.N loop without b.ReportAllocs(): allocation regressions in the
//     measured path go unseen;
//   - loop results that are never sunk: an assignment inside the b.N loop
//     to a variable that is never read afterwards, a result discarded
//     into _, or a pure call (returns values, no argument that could
//     carry a side effect) used as a statement — all of which license the
//     compiler to delete the very work being timed.
type BenchHygiene struct{}

// benchFile is the harness file this analyzer audits.
const benchFile = "bench_test.go"

// Name implements Analyzer.
func (BenchHygiene) Name() string { return "benchhygiene" }

// Doc implements Analyzer.
func (BenchHygiene) Doc() string {
	return "flags b.N loops missing ReportAllocs and loop results the compiler may eliminate"
}

// Run implements Analyzer.
func (BenchHygiene) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if filepath.Base(p.Fset.Position(f.Pos()).Filename) != benchFile {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			bObj := testingBParam(p, fd)
			if bObj == nil {
				continue
			}
			loops := benchLoops(p, fd.Body, bObj)
			if len(loops) == 0 {
				continue
			}
			if !callsMethodOnObj(p, fd.Body, bObj, "ReportAllocs") {
				diags = append(diags, p.Diag(BenchHygiene{}.Name(), fd.Name,
					"%s has a b.N loop but never calls %s.ReportAllocs()", fd.Name.Name, bObj.Name()))
			}
			for _, loop := range loops {
				diags = append(diags, auditLoopBody(p, fd, loop)...)
			}
		}
	}
	return diags
}

// testingBParam returns the *testing.B parameter object of fd, if any.
func testingBParam(p *Package, fd *ast.FuncDecl) *types.Var {
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj, ok := p.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			ptr, ok := obj.Type().(*types.Pointer)
			if !ok {
				continue
			}
			named, ok := ptr.Elem().(*types.Named)
			if ok && named.Obj().Name() == "B" && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "testing" {
				return obj
			}
		}
	}
	return nil
}

// benchLoops finds for-loops whose condition mentions b.N.
func benchLoops(p *Package, body *ast.BlockStmt, bObj *types.Var) []*ast.ForStmt {
	var loops []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond == nil {
			return true
		}
		found := false
		ast.Inspect(fs.Cond, func(c ast.Node) bool {
			if sel, ok := c.(*ast.SelectorExpr); ok && sel.Sel.Name == "N" {
				if id, ok := sel.X.(*ast.Ident); ok && p.Info.Uses[id] == bObj {
					found = true
				}
			}
			return true
		})
		if found {
			loops = append(loops, fs)
		}
		return true
	})
	return loops
}

// callsMethodOnObj reports whether body contains a call obj.name(...).
func callsMethodOnObj(p *Package, body *ast.BlockStmt, obj *types.Var, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if id, ok := sel.X.(*ast.Ident); ok && p.Info.Uses[id] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// auditLoopBody flags work inside one b.N loop that the compiler is
// allowed to eliminate.
func auditLoopBody(p *Package, fd *ast.FuncDecl, loop *ast.ForStmt) []Diagnostic {
	var diags []Diagnostic
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Compound assignments (+=, *=, ...) read their target: sunk.
			if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
				return true
			}
			allBlank := true
			var dead []*types.Var
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					return true // assignment through index/field: escapes the loop
				}
				if id.Name == "_" {
					continue
				}
				allBlank = false
				obj, _ := p.Info.Defs[id].(*types.Var)
				if obj == nil {
					obj, _ = p.Info.Uses[id].(*types.Var)
				}
				if obj == nil {
					return true
				}
				if p.Types.Scope().Lookup(obj.Name()) == obj {
					continue // package-level variable: an always-live sink
				}
				if !objUsedAfter(p, fd.Body, obj, n.End()) {
					dead = append(dead, obj)
				}
			}
			if allBlank {
				diags = append(diags, p.Diag(BenchHygiene{}.Name(), n,
					"benchmark loop discards its result into _; the timed work may be dead-code-eliminated — sink it"))
			} else if len(dead) == len(nonBlankLHS(n)) && len(dead) > 0 {
				diags = append(diags, p.Diag(BenchHygiene{}.Name(), n,
					"benchmark loop assigns %s but never reads it; the timed work may be dead-code-eliminated — sink the result", dead[0].Name()))
			}
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := CalleeFunc(p, call)
			if fn == nil || RecvNamed(fn) != nil {
				return true // methods can mutate their receiver
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Results().Len() == 0 {
				return true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if !valueOnlyType(sig.Params().At(i).Type()) {
					return true // an argument can absorb the side effect
				}
			}
			diags = append(diags, p.Diag(BenchHygiene{}.Name(), n,
				"result of %s discarded in benchmark loop and no argument can carry a side effect — sink the result", fn.Name()))
		}
		return true
	})
	return diags
}

func nonBlankLHS(n *ast.AssignStmt) []ast.Expr {
	var out []ast.Expr
	for _, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			out = append(out, lhs)
		}
	}
	return out
}

// objUsedAfter reports whether obj is read anywhere in body after pos.
func objUsedAfter(p *Package, body *ast.BlockStmt, obj *types.Var, pos token.Pos) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && id.Pos() > pos && p.Info.Uses[id] == obj {
			used = true
			return false
		}
		return !used
	})
	return used
}

// valueOnlyType reports whether values of t cannot alias caller-visible
// state (so a callee receiving one cannot have an observable side
// effect through it).
func valueOnlyType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Slice:
		return false
	case *types.Array:
		return valueOnlyType(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !valueOnlyType(u.Field(i).Type()) {
				return false
			}
		}
		return true
	default:
		// Pointers, maps, channels, interfaces, funcs: may carry effects.
		return false
	}
}
