package conc

// The package-local call graph and per-function concurrency summaries.
// Each analyzer gets, per function declaration: the locks it may
// acquire (directly or through package-local callees), the join
// signals it may emit (WaitGroup.Done, channel send, channel close),
// its goroutine spawn sites, and the package-local functions it calls.
// The transitive closures are what make the analyzers interprocedural:
// "calling F while holding mu" knows every lock F's callees reach, and
// "go producer(ch)" knows producer eventually sends.

import (
	"go/ast"
	"go/types"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// sigSet records which join signals a function may emit.
type sigSet struct {
	wgDone   bool // calls sync.WaitGroup.Done
	chanSend bool // sends on or closes a channel
}

func (s sigSet) union(o sigSet) sigSet {
	return sigSet{wgDone: s.wgDone || o.wgDone, chanSend: s.chanSend || o.chanSend}
}

func (s sigSet) any() bool { return s.wgDone || s.chanSend }

// funcInfo is the summary of one function declaration.
type funcInfo struct {
	analysis.Func
	// acquires holds locks this function's own goroutine may take:
	// lock ops in the declaration body and in closures that run inline
	// (immediately invoked or deferred), but not in spawned or escaping
	// closures — those execute on other goroutines or unknown stacks.
	// summarize closes it over the package-local callees.
	acquires map[types.Object]bool
	// signals are join signals emitted anywhere in the body except
	// inside nested go statements (a nested spawn joins itself), closed
	// over the package-local callees like acquires.
	signals sigSet
	// spawns are the go statements in the body, at any nesting depth.
	spawns []*ast.GoStmt
}

// summary is the per-package-unit concurrency model.
type summary struct {
	*analysis.Graph[*funcInfo]
	p *analysis.Package
	// lockName remembers the first rendering of each lock for messages.
	lockName map[types.Object]string
	// hasWgWait / hasChanRecv: whether any non-test code in the unit
	// waits on a WaitGroup / receives from a channel — the coarse
	// "join counterpart exists" facts goleak needs.
	hasWgWait   bool
	hasChanRecv bool
}

// summarize builds the summary for one package unit, scanning only
// non-test files, and closes acquires and signals over the
// package-local call graph (a union fixpoint; cycles are fine).
func summarize(p *analysis.Package) *summary {
	s := &summary{
		Graph: analysis.NewGraph([]*analysis.Package{p}, func(f analysis.Func) *funcInfo {
			return &funcInfo{Func: f, acquires: map[types.Object]bool{}}
		}),
		p:        p,
		lockName: map[types.Object]string{},
	}
	for _, fi := range s.Funcs {
		s.scanFunc(fi)
	}
	s.Fixpoint(func(fi *funcInfo, _ analysis.CallSite, callee *funcInfo) bool {
		changed := false
		for o := range callee.acquires {
			if !fi.acquires[o] {
				fi.acquires[o] = true
				changed = true
			}
		}
		if merged := fi.signals.union(callee.signals); merged != fi.signals {
			fi.signals = merged
			changed = true
		}
		return changed
	})
	return s
}

// callee resolves a call to a declaration of this package unit, or nil.
func (s *summary) callee(call *ast.CallExpr) *funcInfo {
	fi, _ := s.Lookup(analysis.CalleeFunc(s.p, call))
	return fi
}

// scanFunc walks one declaration body collecting acquires, signals,
// spawns and calls.
func (s *summary) scanFunc(fi *funcInfo) {
	p := s.p
	// inlineLits are function literals that run on this goroutine's
	// stack: immediately invoked (func(){...}()) or deferred.
	inlineLits := map[*ast.FuncLit]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				inlineLits[lit] = true
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				inlineLits[lit] = true
			}
		}
		return true
	})
	// spawned marks go-statement function literals (and everything
	// under a go statement) so acquires/signals exclude them.
	var walk func(n ast.Node, inGo bool)
	walk = func(n ast.Node, inGo bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				fi.spawns = append(fi.spawns, m)
				// The spawned call's effects belong to the new
				// goroutine; calls are still recorded for the call
				// graph used by goleak, but locks and signals are not.
				s.walkCallsOnly(fi, m.Call)
				return false
			case *ast.FuncLit:
				if m == n {
					return true // the literal we were asked to walk
				}
				// Nested literal: inline ones keep this goroutine's
				// context; escaping ones contribute calls only.
				if inlineLits[m] {
					walk(m.Body, inGo)
				} else {
					s.walkCallsOnly(fi, m.Body)
				}
				return false
			case *ast.CallExpr:
				if obj, recv, method := lockCall(p, m); obj != nil && lockAcquires(method) {
					fi.acquires[obj] = true
					s.noteLockName(obj, recv)
				}
				if _, _, method := wgCall(p, m); method == "Done" {
					fi.signals.wgDone = true
				}
				if _, _, method := wgCall(p, m); method == "Wait" {
					s.hasWgWait = true
				}
				if analysis.IsBuiltin(p, m, "close") {
					fi.signals.chanSend = true
				}
				s.addCall(fi, m)
			case *ast.SendStmt:
				fi.signals.chanSend = true
			case *ast.UnaryExpr:
				if isChanRecv(p, m) {
					s.hasChanRecv = true
				}
			case *ast.RangeStmt:
				if isChanType(p, m.X) {
					s.hasChanRecv = true
				}
			}
			return true
		})
	}
	walk(fi.Decl.Body, false)
}

// walkCallsOnly records call edges, spawn sites and receive facts under
// n without attributing locks or signals to fi's goroutine.
func (s *summary) walkCallsOnly(fi *funcInfo, n ast.Node) {
	p := s.p
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			fi.spawns = append(fi.spawns, m)
		case *ast.CallExpr:
			s.addCall(fi, m)
			if _, _, method := wgCall(p, m); method == "Wait" {
				s.hasWgWait = true
			}
		case *ast.UnaryExpr:
			if isChanRecv(p, m) {
				s.hasChanRecv = true
			}
		case *ast.RangeStmt:
			if isChanType(p, m.X) {
				s.hasChanRecv = true
			}
		}
		return true
	})
}

// addCall records a call site; the fixpoint follows the ones that
// resolve to a declaration of this unit.
func (s *summary) addCall(fi *funcInfo, call *ast.CallExpr) {
	if cs, ok := analysis.SiteOf(s.p, call); ok {
		fi.Calls = append(fi.Calls, cs)
	}
}

// noteLockName remembers a human-readable name for a lock object.
func (s *summary) noteLockName(obj types.Object, recv ast.Expr) {
	if _, ok := s.lockName[obj]; !ok {
		s.lockName[obj] = cfg.Render(s.p.Fset, recv)
	}
}

// nameOf renders a lock object for messages.
func (s *summary) nameOf(obj types.Object) string {
	if n, ok := s.lockName[obj]; ok {
		return n
	}
	return obj.Name()
}

// ---- CFG units and operation extraction ----

// opKind classifies the operations the CFG-based analyzers track.
type opKind int

const (
	opLock opKind = iota
	opUnlock
	opWGAdd
	opWGDone
	opWGWait
	opCall  // call to a package-local declaration
	opPanic // panic() — terminates the path without running unlocks
)

// op is one tracked operation at a specific site.
type op struct {
	kind     opKind
	obj      types.Object // lock/WaitGroup identity (nil for call/panic)
	method   string       // lock method ("Lock", "RLock", ...)
	node     ast.Node
	deferred bool
	callee   *funcInfo // for opCall
}

// unit is one CFG-analyzed body: a declaration body or a function
// literal within it.
type unit struct {
	fi    *funcInfo
	lit   *ast.FuncLit // nil for the declaration body itself
	inGo  bool         // lit is the immediate function of a go statement
	graph *cfg.Graph
	ops   map[*cfg.Block][]op
}

// collectUnits builds the CFG units of one declaration: its own body
// plus one unit per nested function literal (each literal's body is
// excluded from its parent's unit — the CFG layer keeps nested bodies
// out of blocks already, and op extraction skips them too).
func collectUnits(p *analysis.Package, s *summary, fi *funcInfo) []*unit {
	units := []*unit{{fi: fi}}
	goLits := map[*ast.FuncLit]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			units = append(units, &unit{fi: fi, lit: lit, inGo: goLits[lit]})
		}
		return true
	})
	for _, u := range units {
		body := fi.Decl.Body
		if u.lit != nil {
			body = u.lit.Body
		}
		u.graph = cfg.New(body)
		u.ops = map[*cfg.Block][]op{}
		for _, b := range u.graph.Blocks {
			for _, n := range b.Nodes {
				u.ops[b] = append(u.ops[b], extractOps(p, s, n)...)
			}
		}
	}
	return units
}

// extractOps pulls tracked operations out of one shallow CFG node, in
// source order, skipping nested function literals and go statements
// (their effects belong to other units / other goroutines).
func extractOps(p *analysis.Package, s *summary, n ast.Node) []op {
	var ops []op
	deferred := false
	if d, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = d.Call
		// defer func(){ mu.Unlock() }() runs on this goroutine at
		// return: extract the literal's ops as deferred ones.
		if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			n = lit.Body
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if obj, recv, method := lockCall(p, m); obj != nil {
				kind := opUnlock
				if lockAcquires(method) {
					kind = opLock
				}
				s.noteLockName(obj, recv)
				ops = append(ops, op{kind: kind, obj: obj, method: method, node: m, deferred: deferred})
				return true
			}
			if obj, _, method := wgCall(p, m); obj != nil {
				kind := opWGAdd
				switch method {
				case "Done":
					kind = opWGDone
				case "Wait":
					kind = opWGWait
				}
				ops = append(ops, op{kind: kind, obj: obj, node: m, deferred: deferred})
				return true
			}
			if analysis.IsBuiltin(p, m, "panic") {
				ops = append(ops, op{kind: opPanic, node: m, deferred: deferred})
				return true
			}
			if fd := s.callee(m); fd != nil {
				ops = append(ops, op{kind: opCall, node: m, callee: fd, deferred: deferred})
			}
		}
		return true
	})
	return ops
}
