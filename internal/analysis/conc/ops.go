package conc

// Classification of the concurrency vocabulary: which calls are lock
// operations, WaitGroup operations, sync/atomic accesses, and which
// expressions make, send on, or receive from channels — plus the
// resolution of the receiver expression to a stable types.Object so
// "b.mu" in one method and "b.mu" in another are the same lock.

import (
	"go/ast"
	"go/token"
	"go/types"

	"ookami/internal/analysis"
)

// resolveObj maps an expression denoting a lock/WaitGroup/channel to a
// stable identity: the field object for selectors (shared by every
// method touching that field), the variable object for identifiers.
// Index and star expressions resolve through their operand, so locks in
// a slice collapse onto the slice object — conservative but stable.
func resolveObj(p *analysis.Package, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := p.Info.Uses[e]; o != nil {
			return o
		}
		return p.Info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[e]; ok {
			return sel.Obj()
		}
		return p.Info.Uses[e.Sel] // package-qualified name
	case *ast.IndexExpr:
		return resolveObj(p, e.X)
	case *ast.StarExpr:
		return resolveObj(p, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return resolveObj(p, e.X)
		}
	}
	return nil
}

// lockCall classifies a call as a lock operation. method is one of
// "Lock", "Unlock", "RLock", "RUnlock" (TryLock variants are
// conditional and ignored); recv is the receiver expression. Covers
// sync.Mutex, sync.RWMutex and the sync.Locker interface (sync.Cond.L).
func lockCall(p *analysis.Package, call *ast.CallExpr) (obj types.Object, recv ast.Expr, method string) {
	fn := analysis.CalleeFunc(p, call)
	if fn == nil {
		return nil, nil, ""
	}
	name := fn.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, nil, ""
	}
	ok := analysis.IsMethodOn(fn, "sync", "Mutex", name) ||
		analysis.IsMethodOn(fn, "sync", "RWMutex", name) ||
		analysis.IsMethodOn(fn, "sync", "Locker", name)
	if !ok {
		return nil, nil, ""
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, ""
	}
	return resolveObj(p, sel.X), sel.X, name
}

// lockAcquireMode maps a lock method to its paired release and reports
// whether it acquires ("Lock"/"RLock") or releases.
func lockAcquires(method string) bool { return method == "Lock" || method == "RLock" }

// pairedRelease returns the release method matching an acquire.
func pairedRelease(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// wgCall classifies a call as a sync.WaitGroup operation ("Add",
// "Done", "Wait") and resolves the WaitGroup object.
func wgCall(p *analysis.Package, call *ast.CallExpr) (obj types.Object, recv ast.Expr, method string) {
	fn := analysis.CalleeFunc(p, call)
	if fn == nil {
		return nil, nil, ""
	}
	name := fn.Name()
	switch name {
	case "Add", "Done", "Wait":
	default:
		return nil, nil, ""
	}
	if !analysis.IsMethodOn(fn, "sync", "WaitGroup", name) {
		return nil, nil, ""
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, ""
	}
	return resolveObj(p, sel.X), sel.X, name
}

// atomicCall reports whether a call is a top-level sync/atomic function
// (StoreInt32, AddInt64, CompareAndSwapPointer, ...). Methods on the
// typed atomics (atomic.Int64 etc.) are type-safe and never mix with
// plain access, so only the address-taking functions matter.
func atomicCall(p *analysis.Package, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(p, call)
	return fn != nil && analysis.FuncPkgPath(fn) == "sync/atomic" && analysis.RecvNamed(fn) == nil
}

// makesChan reports whether the call is make(chan ...) and, if so,
// whether a capacity argument makes it buffered.
func makesChan(p *analysis.Package, call *ast.CallExpr) (isChan, buffered bool) {
	if !analysis.IsBuiltin(p, call, "make") || len(call.Args) == 0 {
		return false, false
	}
	t := p.Info.TypeOf(call.Args[0])
	if t == nil {
		return false, false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false, false
	}
	return true, len(call.Args) >= 2
}

// isChanRecv reports whether the expression is a channel receive.
func isChanRecv(p *analysis.Package, e ast.Expr) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return false
	}
	return true
}

// isChanType reports whether the expression has channel type.
func isChanType(p *analysis.Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
