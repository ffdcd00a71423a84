package conc

// atomicmix flags variables that one function accesses through
// sync/atomic and another reads or writes plainly — the torn-gate bug:
// the atomic side establishes no happens-before with the plain side,
// so the plain access races with every atomic one. The trace
// collector's atomic.Pointer gate and the placement tracker's CAS'd
// page table are exactly the shapes this must keep honest.
//
// The identity tracked is the address passed to the atomic call: &x
// marks x, &x[i] marks the elements of x. For element-atomics only
// plain *element* accesses conflict — len, cap, range and reslicing
// touch the header, and (re)initializing the slice variable itself is
// how the structure is built.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ookami/internal/analysis"
)

// AtomicMix reports mixed atomic/plain access to the same variable.
type AtomicMix struct{}

// Name implements analysis.Analyzer.
func (AtomicMix) Name() string { return "atomicmix" }

// Doc implements analysis.Analyzer.
func (AtomicMix) Doc() string {
	return "variables accessed via sync/atomic in one function and by plain load/store in another"
}

// atomicUse records where a variable is used atomically.
type atomicUse struct {
	fn      *ast.FuncDecl // enclosing declaration
	fnName  string
	node    ast.Node
	element bool // address was &x[i]: only element accesses conflict
}

// Run implements analysis.Analyzer.
func (AtomicMix) Run(p *analysis.Package) []analysis.Diagnostic {
	atomicUses := map[types.Object][]atomicUse{}
	// idents consumed by the atomic calls themselves never count as
	// plain accesses.
	inAtomicArg := map[*ast.Ident]bool{}

	decls := p.FuncDecls()
	for _, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !atomicCall(p, call) {
				return true
			}
			for _, arg := range call.Args {
				u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				obj := resolveObj(p, u.X)
				v, isVar := obj.(*types.Var)
				if !isVar {
					continue
				}
				_, element := ast.Unparen(u.X).(*ast.IndexExpr)
				atomicUses[v] = append(atomicUses[v], atomicUse{
					fn: fd, fnName: analysis.FuncDisplayName(fd), node: call, element: element,
				})
				markIdents(u, inAtomicArg)
			}
			return true
		})
	}
	if len(atomicUses) == 0 {
		return nil
	}

	var diags []analysis.Diagnostic
	for _, fd := range decls {
		parents := map[ast.Node]ast.Node{}
		var stack []ast.Node
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)

			id, ok := n.(*ast.Ident)
			if !ok || inAtomicArg[id] {
				return true
			}
			obj, ok := p.Info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			uses, tracked := atomicUses[obj]
			if !tracked {
				return true
			}
			other := otherFunc(uses, fd)
			if other == nil {
				return true // atomic and plain access share a function
			}
			if !plainConflict(p, parents, id, other.element) {
				return true
			}
			diags = append(diags, p.Diag("atomicmix", reportNode(parents, id),
				"%s is accessed with sync/atomic in %s but with a plain load/store here; all access to it must go through sync/atomic",
				obj.Name(), other.fnName))
			return true
		})
	}
	return diags
}

// otherFunc returns an atomic use from a different declaration than fd,
// preferring the earliest for stable messages, or nil if every atomic
// use lives in fd.
func otherFunc(uses []atomicUse, fd *ast.FuncDecl) *atomicUse {
	var candidates []atomicUse
	for _, u := range uses {
		if u.fn != fd {
			candidates = append(candidates, u)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].node.Pos() < candidates[j].node.Pos() })
	return &candidates[0]
}

// markIdents records every identifier under n as consumed by an atomic
// call argument.
func markIdents(n ast.Node, set map[*ast.Ident]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			set[id] = true
		}
		return true
	})
}

// plainConflict decides whether the use of id is a conflicting plain
// access. For element-atomics (&x[i]) only indexed accesses conflict;
// header operations (len, cap, range, reslicing, reassignment of the
// slice itself) do not. Composite-literal field keys are names, not
// accesses.
func plainConflict(p *analysis.Package, parents map[ast.Node]ast.Node, id *ast.Ident, element bool) bool {
	parent := parents[id]
	// pt.pages → the selector is the access; climb to it.
	access := ast.Node(id)
	if sel, ok := parent.(*ast.SelectorExpr); ok && sel.Sel == id {
		access = sel
		parent = parents[sel]
	}
	if kv, ok := parent.(*ast.KeyValueExpr); ok && kv.Key == access {
		return false // struct literal field name
	}
	if !element {
		return true
	}
	idx, ok := parent.(*ast.IndexExpr)
	return ok && idx.X == access
}

// reportNode climbs to the expression that best names the access
// (pt.pages[i] rather than pages) for the diagnostic position.
func reportNode(parents map[ast.Node]ast.Node, id *ast.Ident) ast.Node {
	n := ast.Node(id)
	for {
		parent := parents[n]
		switch pp := parent.(type) {
		case *ast.SelectorExpr:
			if pp.Sel == n || pp.X == n {
				n = parent
				continue
			}
		case *ast.IndexExpr:
			if pp.X == n {
				n = parent
				continue
			}
		}
		return n
	}
}
