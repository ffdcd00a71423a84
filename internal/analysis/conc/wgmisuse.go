package conc

// wgmisuse checks the sync.WaitGroup protocol along CFG paths:
//
//   - Add inside the spawned goroutine: the spawner can reach Wait
//     before the goroutine is scheduled, so Wait sees a zero counter
//     and returns with work still running. Add must happen before go.
//   - Add after Wait with no path back to a Wait: the counter is bumped
//     after the barrier fell; nothing will ever wait for that work.
//     (Loop-shaped reuse — Add; go; Wait; repeat — is fine and not
//     flagged, because from the Add a Wait is reachable again.)
//   - Done on a locally-declared WaitGroup with an Add-free path from
//     function entry: the counter can go negative, which panics.

import (
	"go/ast"
	"go/types"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// WGMisuse reports WaitGroup protocol violations.
type WGMisuse struct{}

// Name implements analysis.Analyzer.
func (WGMisuse) Name() string { return "wgmisuse" }

// Doc implements analysis.Analyzer.
func (WGMisuse) Doc() string {
	return "WaitGroup misuse: Add inside the spawned goroutine, Add after Wait, Done without Add on a path"
}

// Run implements analysis.Analyzer.
func (WGMisuse) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		diags = append(diags, addInsideSpawn(p, fi)...)
		for _, u := range collectUnits(p, s, fi) {
			diags = append(diags, addAfterWait(p, u)...)
			if u.lit == nil {
				diags = append(diags, doneWithoutAdd(p, u)...)
			}
		}
	}
	return diags
}

// addInsideSpawn flags WaitGroup.Add anywhere inside a go statement's
// function literal.
func addInsideSpawn(p *analysis.Package, fi *funcInfo) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, g := range fi.spawns {
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj, _, method := wgCall(p, call); obj != nil && method == "Add" {
				diags = append(diags, p.Diag("wgmisuse", call,
					"WaitGroup.Add inside the spawned goroutine races with Wait: the spawner can Wait before this runs; Add before the go statement"))
			}
			return true
		})
	}
	return diags
}

// addAfterWait flags Add ops reachable from a Wait on the same
// WaitGroup when no Wait is reachable from the Add.
func addAfterWait(p *analysis.Package, u *unit) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, addSite := range opSites(u, opWGAdd) {
		if addSite.op.deferred {
			continue
		}
		sawWaitBefore := false
		waitAfter := false
		for _, waitSite := range opSites(u, opWGWait) {
			if waitSite.op.obj != addSite.op.obj {
				continue
			}
			if reachesOp(u, waitSite, addSite) {
				sawWaitBefore = true
			}
			if reachesOp(u, addSite, waitSite) {
				waitAfter = true
			}
		}
		if sawWaitBefore && !waitAfter {
			diags = append(diags, p.Diag("wgmisuse", addSite.op.node,
				"WaitGroup.Add after Wait has returned, with no later Wait: the added work is never waited for"))
		}
	}
	return diags
}

// doneWithoutAdd flags Done calls, at declaration level, on a
// WaitGroup declared in this function, when some path from entry
// reaches the Done without passing an Add. Done inside spawned
// closures is the normal completion pattern and exempt (the Add
// guarding it lives on the spawner's path).
func doneWithoutAdd(p *analysis.Package, u *unit) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, doneSite := range opSites(u, opWGDone) {
		obj := doneSite.op.obj
		if !declaredIn(obj, u.fi.Decl) {
			continue
		}
		if addFreePath(u, doneSite) {
			diags = append(diags, p.Diag("wgmisuse", doneSite.op.node,
				"WaitGroup.Done can run without a matching Add on some path from the function entry; the counter would go negative and panic"))
		}
	}
	return diags
}

// opSite locates one op inside its unit.
type opSite struct {
	block *cfg.Block
	index int
	op    op
}

// opSites returns every op of the kind in block/op order.
func opSites(u *unit, kind opKind) []opSite {
	var sites []opSite
	for _, b := range u.graph.Blocks {
		for i, o := range u.ops[b] {
			if o.kind == kind {
				sites = append(sites, opSite{block: b, index: i, op: o})
			}
		}
	}
	return sites
}

// reachesOp reports whether control can flow from just after `from` to
// `to` (same block counts when to follows from in op order).
func reachesOp(u *unit, from, to opSite) bool {
	if from.block == to.block && to.index > from.index {
		return true
	}
	seen := map[*cfg.Block]bool{}
	stack := append([]*cfg.Block{}, from.block.Succs...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to.block {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

// addFreePath reports whether some path from the unit entry reaches
// the done site without executing a (non-deferred) Add on the same
// WaitGroup.
func addFreePath(u *unit, done opSite) bool {
	obj := done.op.obj
	// blockAdds: whether the block executes an Add before the end (or
	// before the done op, in its own block).
	addsBefore := func(b *cfg.Block, limit int) bool {
		for i, o := range u.ops[b] {
			if limit >= 0 && i >= limit {
				break
			}
			if o.kind == opWGAdd && o.obj == obj && !o.deferred {
				return true
			}
		}
		return false
	}
	seen := map[*cfg.Block]bool{}
	stack := []*cfg.Block{u.graph.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		if b == done.block {
			if !addsBefore(b, done.index) {
				return true
			}
			continue
		}
		if addsBefore(b, -1) {
			continue // every continuation through b has seen the Add
		}
		stack = append(stack, b.Succs...)
	}
	return false
}

// declaredIn reports whether the object is a non-field variable
// declared inside the function declaration (not a parameter: the
// position test excludes nothing there, so parameters are excluded by
// requiring the position to be after the body's opening brace).
func declaredIn(obj types.Object, fd *ast.FuncDecl) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return fd.Body != nil && obj.Pos() > fd.Body.Lbrace && obj.Pos() < fd.Body.Rbrace
}
