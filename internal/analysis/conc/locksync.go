package conc

// locksync checks the mechanics of lock usage:
//
//   - a value of a lock-bearing type (sync.Mutex, RWMutex, WaitGroup,
//     Once, Cond, or any struct/array containing one) copied by a
//     parameter, an assignment, or a range value — the copy is an
//     independent lock and protects nothing;
//   - a Lock with a CFG exit path on which the matching Unlock never
//     runs (paths ending in panic are exempt: the process is going
//     down anyway). A deferred Unlock anywhere in the body covers all
//     exits;
//   - defer Unlock inside a loop: defers run at function return, not
//     iteration end, so the lock is held for the rest of the function
//     and each iteration queues another release of a lock it no
//     longer holds.

import (
	"go/ast"
	"go/types"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// LockSync reports copied locks, leaked Locks, and deferred Unlocks in loops.
type LockSync struct{}

// Name implements analysis.Analyzer.
func (LockSync) Name() string { return "locksync" }

// Doc implements analysis.Analyzer.
func (LockSync) Doc() string {
	return "copied lock values, Lock without Unlock on an exit path, defer Unlock inside a loop"
}

// Run implements analysis.Analyzer.
func (LockSync) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		diags = append(diags, copiedLocks(p, f)...)
	}
	for _, fi := range s.Funcs {
		for _, u := range collectUnits(p, s, fi) {
			diags = append(diags, lockLeaks(p, u)...)
			diags = append(diags, deferInLoop(p, u)...)
		}
	}
	return diags
}

// lockBearing reports whether values of t contain a sync lock, looking
// through structs, arrays and named types — but not pointers, slices,
// maps or channels, whose copies share the underlying lock.
func lockBearing(t types.Type) bool {
	seen := map[types.Type]bool{}
	var rec func(t types.Type) bool
	rec = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond":
					return true
				}
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if rec(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return rec(u.Elem())
		}
		return false
	}
	return rec(t)
}

// copiedLocks flags lock-bearing values copied via parameters,
// receivers, assignments from existing memory, and range values.
func copiedLocks(p *analysis.Package, f *ast.File) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	checkFields := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := p.Info.TypeOf(field.Type)
			if t == nil || !lockBearing(t) {
				continue
			}
			diags = append(diags, p.Diag("locksync", field.Type,
				"%s copies a lock-bearing value of type %s; the copy is an independent lock — pass a pointer", what, t))
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFields(n.Recv, "receiver")
			checkFields(n.Type.Params, "parameter")
		case *ast.FuncLit:
			checkFields(n.Type.Params, "parameter")
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				if !copiesMemory(rhs) {
					continue
				}
				// Assigning to _ discards the value; no usable copy exists.
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				t := p.Info.TypeOf(rhs)
				if t == nil || !lockBearing(t) {
					continue
				}
				diags = append(diags, p.Diag("locksync", n.Lhs[i],
					"assignment copies a lock-bearing value of type %s; the copy is an independent lock — use a pointer", t))
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			t := p.Info.TypeOf(n.Value)
			if t != nil && lockBearing(t) {
				diags = append(diags, p.Diag("locksync", n.Value,
					"range value copies a lock-bearing value of type %s per iteration; range over indices or pointers instead", t))
			}
		}
		return true
	})
	return diags
}

// copiesMemory reports whether the expression reads an existing value
// (identifier, field, element, or dereference) rather than constructing
// a fresh one (composite literal, call, zero value).
func copiesMemory(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// lockLeaks flags Lock operations with an Unlock-free path to the unit
// exit.
func lockLeaks(p *analysis.Package, u *unit) []analysis.Diagnostic {
	// Deferred releases cover every exit of the unit.
	deferredRelease := map[types.Object]map[string]bool{}
	for _, b := range u.graph.Blocks {
		for _, o := range u.ops[b] {
			if o.deferred && o.kind == opUnlock {
				if deferredRelease[o.obj] == nil {
					deferredRelease[o.obj] = map[string]bool{}
				}
				deferredRelease[o.obj][o.method] = true
			}
		}
	}
	var diags []analysis.Diagnostic
	for _, site := range opSites(u, opLock) {
		if site.op.deferred {
			continue
		}
		release := pairedRelease(site.op.method)
		if deferredRelease[site.op.obj][release] {
			continue
		}
		if leakPath(u, site, release) {
			diags = append(diags, p.Diag("locksync", site.op.node,
				"%s is locked here but some path to the function exit never calls %s",
				cfg.Render(p.Fset, site.op.node.(*ast.CallExpr).Fun), release))
		}
	}
	return diags
}

// leakPath reports whether a path exists from just after the lock op
// to the unit exit on which the matching release never executes. Panic
// terminates a path without counting as a leak.
func leakPath(u *unit, lock opSite, release string) bool {
	obj := lock.op.obj
	// scan returns true if the path is closed within the block (release
	// or panic found), scanning ops from index i.
	scan := func(b *cfg.Block, i int) bool {
		for ; i < len(u.ops[b]); i++ {
			o := u.ops[b][i]
			if o.deferred {
				continue
			}
			if o.kind == opUnlock && o.obj == obj && o.method == release {
				return true
			}
			if o.kind == opPanic {
				return true
			}
		}
		return false
	}
	if scan(lock.block, lock.index+1) {
		return false
	}
	seen := map[*cfg.Block]bool{}
	stack := append([]*cfg.Block{}, lock.block.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if b == u.graph.Exit {
			return true
		}
		if scan(b, 0) {
			continue
		}
		stack = append(stack, b.Succs...)
	}
	return false
}

// deferInLoop flags deferred Unlocks on a CFG cycle.
func deferInLoop(p *analysis.Package, u *unit) []analysis.Diagnostic {
	var inCycle map[*cfg.Block]bool
	var diags []analysis.Diagnostic
	for _, b := range u.graph.Blocks {
		for _, o := range u.ops[b] {
			if !o.deferred || o.kind != opUnlock {
				continue
			}
			if inCycle == nil {
				inCycle = u.graph.InCycle()
			}
			if inCycle[b] {
				diags = append(diags, p.Diag("locksync", o.node,
					"defer %s inside a loop runs at function return, not at iteration end; unlock explicitly or extract the body",
					cfg.Render(p.Fset, o.node.(*ast.CallExpr).Fun)))
			}
		}
	}
	return diags
}
