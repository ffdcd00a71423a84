package conc

// goleak flags go statements that spawn goroutines nothing can join:
// the spawned body (or, through the call-graph summaries, the
// package-local function it runs) emits no completion signal — no
// WaitGroup.Done, no channel send, no close — or emits one whose
// counterpart (a Wait, a receive) appears nowhere in the package. Such
// a goroutine outlives its region: in the simulated runtimes that
// means team workers leaking across parallel regions and benchmark
// samples bleeding into each other's measurements.
//
// It also flags the timer variant of the same leak: <-time.After(d) in
// a multi-case select keeps the underlying timer (and its goroutine's
// wakeup) live until d elapses even when another case wins; hot retry
// loops should use time.NewTimer and Stop it.

import (
	"go/ast"
	"go/token"

	"ookami/internal/analysis"
)

// GoLeak reports goroutines without a join edge and leaky timer selects.
type GoLeak struct{}

// Name implements analysis.Analyzer.
func (GoLeak) Name() string { return "goleak" }

// Doc implements analysis.Analyzer.
func (GoLeak) Doc() string {
	return "goroutines with no join edge back to their spawner's package, and timer-leaking time.After selects"
}

// Run implements analysis.Analyzer.
func (GoLeak) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		for _, g := range fi.spawns {
			sig, known := spawnSignals(p, s, g)
			if !known {
				continue // callee outside the package: assume it joins
			}
			switch {
			case !sig.any():
				diags = append(diags, p.Diag("goleak", g,
					"goroutine has no join edge: its body signals no completion (no WaitGroup.Done, channel send, or close), so nothing can wait for it"))
			case sig.wgDone && !s.hasWgWait && !(sig.chanSend && s.hasChanRecv):
				diags = append(diags, p.Diag("goleak", g,
					"goroutine signals completion via WaitGroup.Done but nothing in the package calls Wait"))
			case sig.chanSend && !s.hasChanRecv && !(sig.wgDone && s.hasWgWait):
				diags = append(diags, p.Diag("goleak", g,
					"goroutine signals completion on a channel but nothing in the package receives"))
			}
		}
	}
	diags = append(diags, timerLeaks(p)...)
	return diags
}

// spawnSignals computes the join signals the spawned goroutine may
// emit. known is false when the callee cannot be resolved within the
// package (function values, external functions).
func spawnSignals(p *analysis.Package, s *summary, g *ast.GoStmt) (sigSet, bool) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return litSignals(p, s, lit), true
	}
	if fd := s.callee(g.Call); fd != nil {
		return fd.signals, true
	}
	return sigSet{}, false
}

// litSignals collects join signals of a spawned function literal:
// direct sends/Dones/closes plus the transitive signals of
// package-local callees, excluding anything under a nested go
// statement (a nested spawn must join on its own).
func litSignals(p *analysis.Package, s *summary, lit *ast.FuncLit) sigSet {
	var sig sigSet
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SendStmt:
			sig.chanSend = true
		case *ast.CallExpr:
			if analysis.IsBuiltin(p, n, "close") {
				sig.chanSend = true
			}
			if _, _, method := wgCall(p, n); method == "Done" {
				sig.wgDone = true
			}
			if fd := s.callee(n); fd != nil {
				sig = sig.union(fd.signals)
			}
		}
		return true
	})
	return sig
}

// timerLeaks flags <-time.After(d) clauses in multi-case selects.
func timerLeaks(p *analysis.Package) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok || len(sel.Body.List) < 2 {
				return true
			}
			for _, c := range sel.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				if call := timeAfterRecv(p, cc.Comm); call != nil {
					diags = append(diags, p.Diag("goleak", call,
						"<-time.After in a multi-case select leaks the timer until it fires when another case wins; use time.NewTimer and defer/call Stop"))
				}
			}
			return true
		})
	}
	return diags
}

// timeAfterRecv returns the time.After call if the comm statement
// receives from one, else nil.
func timeAfterRecv(p *analysis.Package, comm ast.Stmt) *ast.CallExpr {
	var recv ast.Expr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv = s.Rhs[0]
		}
	}
	if recv == nil {
		return nil
	}
	u, ok := ast.Unparen(recv).(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return nil
	}
	call, ok := ast.Unparen(u.X).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn := analysis.CalleeFunc(p, call)
	if fn == nil || fn.Name() != "After" || analysis.FuncPkgPath(fn) != "time" || analysis.RecvNamed(fn) != nil {
		return nil
	}
	return call
}
