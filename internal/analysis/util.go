package analysis

import (
	"go/ast"
	"go/types"
)

// CalleeFunc resolves the function or method a call invokes, or nil for
// builtins, conversions and calls through function-typed values.
func CalleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := p.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// IsBuiltin reports whether the call invokes the named universe builtin.
func IsBuiltin(p *Package, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := p.Info.Uses[id].(*types.Builtin)
	return isB
}

// FuncPkgPath returns the import path of the package declaring f
// (empty for builtins like error.Error).
func FuncPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// RecvNamed returns the named receiver type of a method (through one
// pointer), or nil for plain functions.
func RecvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsMethodOn reports whether f is a method named name on pkgPath.typeName
// (value or pointer receiver).
func IsMethodOn(f *types.Func, pkgPath, typeName, name string) bool {
	if f == nil || f.Name() != name {
		return false
	}
	named := RecvNamed(f)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

var errorType = types.Universe.Lookup("error").Type()

// errorResultIndexes returns the positions of error-typed results in a
// call's result list ([0] for a single error return).
func errorResultIndexes(p *Package, call *ast.CallExpr) []int {
	t := p.Info.TypeOf(call)
	if t == nil {
		return nil
	}
	if tuple, ok := t.(*types.Tuple); ok {
		var idx []int
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errorType) {
				idx = append(idx, i)
			}
		}
		return idx
	}
	if types.Identical(t, errorType) {
		return []int{0}
	}
	return nil
}

// isFloat reports whether t is a floating-point (or complex) type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
