package analysis

// The call-graph engine shared by the interprocedural passes. The
// concurrency pass (lock and join-signal facts) and the purity pass
// (effect facts) run the same pipeline over it: register one node per
// non-test function declaration, let the client scan each body for
// facts and call sites, then close the facts over the call graph with
// a round-robin fixpoint. The client embeds Func in its per-function
// summary type and supplies the transfer function; the engine owns the
// nodes, call-site resolution and the iteration order.

import (
	"go/ast"
	"go/types"
)

// Func is the engine's part of a call-graph node. Clients embed it in
// their per-function summary.
type Func struct {
	Decl *ast.FuncDecl
	Name string // FuncDisplayName of Decl
	Pkg  *Package
	// Calls are the call sites the client's scan recorded, in source
	// order. Sites that resolve to no node are kept for the client's
	// boundary treatment; the fixpoint skips them.
	Calls []CallSite
}

func (f *Func) node() *Func { return f }

// Node is a pointer to a client summary type that embeds Func.
type Node interface{ node() *Func }

// CallSite is one call of a named function or method. Recv is the
// receiver operand and Args the remaining arguments, so the method
// expression (*T).M(x, a) splits exactly like the method call x.M(a):
// both pass x as the receiver.
type CallSite struct {
	Fn   *types.Func
	Call *ast.CallExpr
	Recv ast.Expr // nil for plain functions
	Args []ast.Expr
}

// SiteOf resolves a call of a named function or method. ok is false for
// builtins, conversions and calls through function values.
func SiteOf(p *Package, call *ast.CallExpr) (cs CallSite, ok bool) {
	fn := CalleeFunc(p, call)
	if fn == nil {
		return cs, false
	}
	cs = CallSite{Fn: fn, Call: call, Args: call.Args}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || fn.Type().(*types.Signature).Recv() == nil {
		return cs, true
	}
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodExpr && len(call.Args) > 0 {
		cs.Recv, cs.Args = call.Args[0], call.Args[1:]
	} else {
		cs.Recv = sel.X
	}
	return cs, true
}

// funcKey is the cross-package identity of a function: import path,
// receiver type name (empty for plain functions), and name.
type funcKey struct {
	pkg, recv, name string
}

func keyOf(fn *types.Func) funcKey {
	k := funcKey{pkg: FuncPkgPath(fn), name: fn.Name()}
	if named := RecvNamed(fn); named != nil {
		k.recv = named.Obj().Name()
	}
	return k
}

// Graph is the call graph over the non-test function declarations of
// one or more package units.
type Graph[N Node] struct {
	// Funcs are the nodes in registration order: unit order, then
	// declaration order.
	Funcs []N
	byObj map[types.Object]N
	byKey map[funcKey]N // nil until Link
}

// NewGraph registers every non-test function declaration with a body
// of the units; newNode wraps each in the client's summary type.
func NewGraph[N Node](units []*Package, newNode func(Func) N) *Graph[N] {
	g := &Graph[N]{byObj: map[types.Object]N{}}
	for _, p := range units {
		for _, fd := range p.FuncDecls() {
			n := newNode(Func{Decl: fd, Name: FuncDisplayName(fd), Pkg: p})
			g.Funcs = append(g.Funcs, n)
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				g.byObj[obj] = n
			}
		}
	}
	return g
}

// Link makes calls resolve across units by symbol: types.Object
// identity does not survive separate type-checking runs, symbols do.
// The first registered declaration of a symbol wins.
func (g *Graph[N]) Link() {
	g.byKey = map[funcKey]N{}
	for _, n := range g.Funcs {
		f := n.node()
		if obj, ok := f.Pkg.Info.Defs[f.Decl.Name].(*types.Func); ok {
			if _, dup := g.byKey[keyOf(obj)]; !dup {
				g.byKey[keyOf(obj)] = n
			}
		}
	}
}

// Lookup resolves a callee to its node: by object identity, then by
// symbol once the graph is linked. ok is false for a nil fn and for
// functions outside the graph.
func (g *Graph[N]) Lookup(fn *types.Func) (n N, ok bool) {
	if fn == nil {
		return n, false
	}
	if n, ok = g.byObj[fn]; ok || g.byKey == nil {
		return n, ok
	}
	n, ok = g.byKey[keyOf(fn)]
	return n, ok
}

// Fixpoint pushes facts along the resolved call edges until a full pass
// changes nothing. Each pass visits callers in registration order and
// each caller's sites in source order; for clients whose facts carry a
// path (purity's effect chains), that order decides which path is
// reported. Self-edges are skipped. transfer reports whether the
// caller's facts grew.
func (g *Graph[N]) Fixpoint(transfer func(caller N, site CallSite, callee N) bool) {
	for changed := true; changed; {
		changed = false
		for _, caller := range g.Funcs {
			for _, site := range caller.node().Calls {
				callee, ok := g.Lookup(site.Fn)
				if ok && callee.node() != caller.node() && transfer(caller, site, callee) {
					changed = true
				}
			}
		}
	}
}
