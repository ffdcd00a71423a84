package conc

// locksync checks the mechanics of lock usage:
//
//   - a Lock with a CFG exit path on which the matching Unlock never
//     runs (paths ending in panic are exempt: the process is going
//     down anyway). A deferred Unlock anywhere in the body covers all
//     exits;
//   - defer Unlock inside a loop: defers run at function return, not
//     iteration end, so the lock is held for the rest of the function
//     and each iteration queues another release of a lock it no
//     longer holds.
//
// Copied lock values are go vet's copylocks check, which make check runs
// over every file, tests included.

import (
	"go/ast"
	"go/types"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// LockSync reports leaked Locks and deferred Unlocks in loops.
type LockSync struct{}

// Name implements analysis.Analyzer.
func (LockSync) Name() string { return "locksync" }

// Doc implements analysis.Analyzer.
func (LockSync) Doc() string {
	return "Lock without Unlock on an exit path, defer Unlock inside a loop"
}

// Run implements analysis.Analyzer.
func (LockSync) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		for _, u := range collectUnits(p, s, fi) {
			diags = append(diags, lockLeaks(p, u)...)
			diags = append(diags, deferInLoop(p, u)...)
		}
	}
	return diags
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
