package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ookami/internal/analysis/cfg"
)

// The hot-path analyzer suite. The paper's codegen studies ("A64FX —
// Your Compiler You Must Decide!", the ECM SpMV analysis) show the same
// loop source landing anywhere on the roofline depending on what the
// compiler emits; the Go analogue is a kernel loop silently gaining a
// reallocating append, an interface dispatch or a defer. These analyzers
// run over hot functions — every function of a kernel package
// (internal/loops, npb, lulesh, hpcc, vmath, stencil, blas, fft)
// unless marked //ookami:cold, plus any function marked //ookami:hot
// elsewhere — and use the internal/analysis/cfg layer so that loop
// membership means "on a CFG cycle", which survives labeled breaks,
// goto loops and code after unconditional jumps.

// forEachCycleNode walks every hot declaration of p, building CFGs for
// the declaration body and every nested function literal, and calls fn
// for each node lying in a block on a cycle — i.e. every node that can
// execute more than once per call. du is the declaration-wide def-use
// index. Function literal bodies are separate CFG units; the literal
// itself is visited at its creation site.
func forEachCycleNode(p *Package, fn func(fd *ast.FuncDecl, du *cfg.DefUse, n ast.Node)) {
	for _, fd := range hotFuncDecls(p) {
		du := cfg.Collect(p.Info, fd)
		var unit func(body *ast.BlockStmt)
		unit = func(body *ast.BlockStmt) {
			g := cfg.New(body)
			cyc := g.InCycle()
			var nested []*ast.FuncLit
			for _, b := range g.Blocks {
				inCycle := cyc[b]
				for _, root := range b.Nodes {
					ast.Inspect(root, func(n ast.Node) bool {
						if n == nil {
							return true
						}
						if inCycle {
							fn(fd, du, n)
						}
						if lit, ok := n.(*ast.FuncLit); ok {
							nested = append(nested, lit)
							return false
						}
						return true
					})
				}
			}
			for _, lit := range nested {
				unit(lit.Body)
			}
		}
		unit(fd.Body)
	}
}

// isConversion reports whether the call expression is a type conversion.
func isConversion(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// ---------------------------------------------------------------------
// hotappend: append growth without preallocation.

// HotAppend flags self-growing append calls (x = append(x, ...)) inside
// hot loops when every definition of x in the function lacks capacity —
// the repeated-doubling pattern that reallocates and copies O(log n)
// times. Reuse idioms (x = x[:0]) and capacitized makes are recognized
// as preallocation.
type HotAppend struct{}

// Name implements Analyzer.
func (HotAppend) Name() string { return "hotappend" }

// Doc implements Analyzer.
func (HotAppend) Doc() string {
	return "flags append-grown slices in hot loops that were never preallocated"
}

// Run implements Analyzer.
func (HotAppend) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	forEachCycleNode(p, func(fd *ast.FuncDecl, du *cfg.DefUse, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || !IsBuiltin(p, call, "append") || len(call.Args) == 0 {
			return
		}
		target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return // selector/index targets: definitions not tracked
		}
		obj, _ := p.Info.Uses[target].(*types.Var)
		if obj == nil {
			return
		}
		verdict := appendTargetVerdict(p, du, obj)
		if verdict == "" {
			return
		}
		diags = append(diags, p.Diag(HotAppend{}.Name(), call,
			"append grows %s inside a loop of hot function %s but %s; preallocate (make(T, 0, n)) or reuse a buffer (x = x[:0])",
			target.Name, FuncDisplayName(fd), verdict))
	})
	return diags
}

// appendTargetVerdict inspects the definitions of an append target and
// returns a description of the missing preallocation, or "" when the
// slice is preallocated / reused / of unknown origin.
func appendTargetVerdict(p *Package, du *cfg.DefUse, obj types.Object) string {
	defs := du.Defs[obj]
	real := 0
	for _, d := range defs {
		switch d.Kind {
		case cfg.DefParam, cfg.DefRange, cfg.DefUpdate:
			return "" // unknown origin; assume the caller sized it
		}
		// Self-growth (x = append(x, ...)) is not a defining site.
		if call, ok := ast.Unparen(d.Rhs).(*ast.CallExpr); ok && IsBuiltin(p, call, "append") {
			continue
		}
		real++
		if defProvidesCapacity(p, d) {
			return ""
		}
	}
	if real == 0 {
		return ""
	}
	return "every definition leaves it without capacity"
}

// defProvidesCapacity reports whether one definition gives the slice a
// usable capacity.
func defProvidesCapacity(p *Package, d cfg.Def) bool {
	rhs := ast.Unparen(d.Rhs)
	switch rhs := rhs.(type) {
	case nil:
		return false // var x []T
	case *ast.Ident:
		return rhs.Name != "nil" // copied from another variable: unknown, assume sized
	case *ast.CallExpr:
		if !IsBuiltin(p, rhs, "make") {
			return true // produced by a call: unknown, assume sized
		}
		if len(rhs.Args) >= 3 {
			return !isZeroLiteral(rhs.Args[2])
		}
		if len(rhs.Args) == 2 {
			return !isZeroLiteral(rhs.Args[1])
		}
		return false
	case *ast.CompositeLit:
		return len(rhs.Elts) > 0
	case *ast.SliceExpr:
		return true // x[:0] reuse: capacity survives
	default:
		return true
	}
}

func isZeroLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && strings.Trim(lit.Value, "0_xXbBoO") == ""
}

// ---------------------------------------------------------------------
// hotdefer: defer inside hot loops.

// HotDefer flags defer statements inside loops of hot functions: each
// iteration pushes a defer record that only runs at function exit —
// both a hidden allocation and a latent resource leak.
type HotDefer struct{}

// Name implements Analyzer.
func (HotDefer) Name() string { return "hotdefer" }

// Doc implements Analyzer.
func (HotDefer) Doc() string {
	return "flags defer statements inside hot kernel loops"
}

// Run implements Analyzer.
func (HotDefer) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	forEachCycleNode(p, func(fd *ast.FuncDecl, _ *cfg.DefUse, n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok {
			diags = append(diags, p.Diag(HotDefer{}.Name(), d,
				"defer inside a loop of hot function %s accumulates a record per iteration and runs only at return; restructure into a helper function",
				FuncDisplayName(fd)))
		}
	})
	return diags
}

// ---------------------------------------------------------------------
// hotiface: dynamic dispatch inside hot loops.

// HotIface flags dynamic dispatch in hot loops: calls through interface
// methods and calls through function values (except provably
// devirtualizable local closures). Each is an optimization barrier —
// the Go compiler cannot inline or vectorize through a dynamic call,
// the A64FX analogue of the paper's unvectorized gather loops. Boxing
// is left to the compilerdiag firewall, which sees whether the boxed
// value actually escapes.
type HotIface struct{}

// Name implements Analyzer.
func (HotIface) Name() string { return "hotiface" }

// Doc implements Analyzer.
func (HotIface) Doc() string {
	return "flags interface dispatch and indirect calls inside hot kernel loops"
}

// Run implements Analyzer.
func (HotIface) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	forEachCycleNode(p, func(fd *ast.FuncDecl, du *cfg.DefUse, n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || isConversion(p, call) {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, ok := p.Info.Uses[id].(*types.Builtin); ok {
				return
			}
		}
		if callee := CalleeFunc(p, call); callee != nil {
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				diags = append(diags, p.Diag(HotIface{}.Name(), call,
					"interface method call %s in a loop of hot function %s dispatches dynamically; use the concrete type",
					callee.Name(), FuncDisplayName(fd)))
			}
			return
		}
		if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			return // immediate invocation: static
		}
		if _, ok := p.Info.TypeOf(call.Fun).(*types.Signature); !ok {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil {
				if _, sole := du.SoleFuncLit(obj); sole {
					return // devirtualizable local closure
				}
			}
		}
		diags = append(diags, p.Diag(HotIface{}.Name(), call,
			"indirect call through a function value in a loop of hot function %s blocks inlining; take the concrete function or hoist the dispatch",
			FuncDisplayName(fd)))
	})
	return diags
}

// ---------------------------------------------------------------------
// hotreduce: scheduling-dependent float reductions.

// HotReduce flags float accumulations into captured variables from
// inside closures that run concurrently (omp team callbacks and go
// statements) in hot functions. Beyond the data race, the accumulation
// order depends on goroutine scheduling, so the sum is not
// reproducible — the Go analogue of the paper's §IV ULP analysis of
// reassociated reductions. Use the team's Reduce helpers, which
// combine per-thread partials in a fixed order.
type HotReduce struct{}

// Name implements Analyzer.
func (HotReduce) Name() string { return "hotreduce" }

// Doc implements Analyzer.
func (HotReduce) Doc() string {
	return "flags scheduling-dependent float accumulation into captured variables from parallel closures"
}

// Run implements Analyzer.
func (HotReduce) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, fd := range hotFuncDecls(p) {
		name := FuncDisplayName(fd)
		ast.Inspect(fd, func(n ast.Node) bool {
			var lit *ast.FuncLit
			switch n := n.(type) {
			case *ast.GoStmt:
				if l, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					lit = l
				}
			case *ast.CallExpr:
				if !isParallelRuntimeCall(p, n) {
					return true
				}
				for _, arg := range n.Args {
					if l, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						diags = append(diags, capturedFloatAccums(p, l, name)...)
					}
				}
				return true
			default:
				return true
			}
			if lit != nil {
				diags = append(diags, capturedFloatAccums(p, lit, name)...)
			}
			return true
		})
	}
	return diags
}

// isParallelRuntimeCall reports whether the call invokes a method of
// the simulated OpenMP runtime (a type declared in .../internal/omp) —
// its callbacks run on team goroutines concurrently.
func isParallelRuntimeCall(p *Package, call *ast.CallExpr) bool {
	f := CalleeFunc(p, call)
	if f == nil {
		return false
	}
	named := RecvNamed(f)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return PathHasSuffix(named.Obj().Pkg().Path(), "internal/omp")
}

// capturedFloatAccums finds `x += expr` / `x = x + expr` style float
// accumulation into variables declared outside lit, and into an indexed
// slot `s[i]` of such a variable whose index uses no identifier declared
// inside lit: every thread then adds into the same slot. A slot indexed
// by a closure-local value (`parts[chunk]`) is per-thread and stays
// clean.
func capturedFloatAccums(p *Package, lit *ast.FuncLit, fnName string) []Diagnostic {
	var diags []Diagnostic
	inside := func(obj types.Object) bool {
		return obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		accum := as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
			as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN
		if !accum && as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			// x = x + e (or e + x)
			if bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr); ok {
				if sameExpr(as.Lhs[0], bin.X) || (bin.Op == token.ADD && sameExpr(as.Lhs[0], bin.Y)) {
					accum = true
				}
			}
		}
		if !accum || len(as.Lhs) != 1 {
			return true
		}
		if t := p.Info.TypeOf(as.Lhs[0]); t == nil || !isFloat(t) {
			return true
		}
		lhs := ast.Unparen(as.Lhs[0])
		var index ast.Expr
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			lhs, index = ast.Unparen(ix.X), ix.Index
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return true
		}
		obj, _ := p.Info.Uses[id].(*types.Var)
		if obj == nil || inside(obj) {
			return true // declared inside the closure: thread-private
		}
		name := id.Name
		if index != nil {
			private := false
			ast.Inspect(index, func(n ast.Node) bool {
				if iid, ok := n.(*ast.Ident); ok {
					if o := p.Info.Uses[iid]; o != nil && inside(o) {
						private = true
					}
				}
				return !private
			})
			if private {
				return true // a slot chosen per thread
			}
			name = types.ExprString(as.Lhs[0])
		}
		diags = append(diags, p.Diag(HotReduce{}.Name(), as,
			"float accumulation into captured %s from a parallel closure in hot function %s races and its order depends on goroutine scheduling; use the team's Reduce helpers",
			name, fnName))
		return true
	})
	return diags
}

// sameExpr reports whether a and b are the same identifier or index
// expression, as written.
func sameExpr(a, b ast.Expr) bool {
	switch ast.Unparen(a).(type) {
	case *ast.Ident, *ast.IndexExpr:
		return types.ExprString(ast.Unparen(a)) == types.ExprString(ast.Unparen(b))
	}
	return false
}
