package conc

// lockorder builds the lock-acquisition graph of a package — an edge
// a→b for every site that acquires b while (possibly) holding a — and
// reports every edge on a cycle. Two functions locking mu1→mu2 and
// mu2→mu1 deadlock as soon as the schedules interleave; so does a
// function re-acquiring a lock it already holds (sync.Mutex is not
// reentrant), directly or through a callee.
//
// The may-hold sets come from a forward dataflow over each body's CFG
// (union at joins; Lock adds, Unlock removes, deferred unlocks release
// only at return so they do not clear the set mid-body). Call sites to
// package-local functions extend the edges with the callee's
// transitive acquire set from the summary layer.

import (
	"go/ast"
	"go/types"
	"sort"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// LockOrder reports inconsistent lock-acquisition orderings.
type LockOrder struct{}

// Name implements analysis.Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements analysis.Analyzer.
func (LockOrder) Doc() string {
	return "inconsistent lock-acquisition order across functions (deadlock cycles)"
}

// lockEdge is one ordered acquisition: to was acquired while from was held.
type lockEdge struct{ from, to types.Object }

// Run implements analysis.Analyzer.
func (LockOrder) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	sites := map[lockEdge]ast.Node{}
	var order []lockEdge
	addEdge := func(from, to types.Object, n ast.Node) {
		e := lockEdge{from, to}
		if _, ok := sites[e]; !ok {
			sites[e] = n
			order = append(order, e)
		}
	}
	for _, fi := range s.Funcs {
		for _, u := range collectUnits(p, s, fi) {
			lockFlow(u, func(held map[types.Object]bool, o op) {
				switch o.kind {
				case opLock:
					for _, h := range sortedObjs(held) {
						addEdge(h, o.obj, o.node)
					}
				case opCall:
					for _, h := range sortedObjs(held) {
						for _, a := range sortedObjs(o.callee.acquires) {
							addEdge(h, a, o.node)
						}
					}
				}
			})
		}
	}

	// An edge participates in a deadlock cycle iff its head reaches its
	// tail through the acquisition graph.
	succs := map[types.Object][]types.Object{}
	for _, e := range order {
		succs[e.from] = append(succs[e.from], e.to)
	}
	var diags []analysis.Diagnostic
	for _, e := range order {
		if !reachesObj(succs, e.to, e.from) {
			continue
		}
		if e.from == e.to {
			diags = append(diags, p.Diag("lockorder", sites[e],
				"%s may already be held when it is (re)acquired here; sync mutexes are not reentrant and self-deadlock",
				s.nameOf(e.from)))
			continue
		}
		msg := "part of a lock-order cycle"
		if back, ok := sites[lockEdge{e.to, e.from}]; ok {
			msg = "the reverse order is taken at " + analysis.ShortPos(p.Fset, back.Pos())
		}
		diags = append(diags, p.Diag("lockorder", sites[e],
			"%s is acquired while holding %s, but %s — inconsistent lock order can deadlock",
			s.nameOf(e.to), s.nameOf(e.from), msg))
	}
	return diags
}

// reachesObj reports whether from reaches to in the acquisition graph
// (from == to counts only via an actual edge, which the caller
// guarantees by asking per existing edge).
func reachesObj(succs map[types.Object][]types.Object, from, to types.Object) bool {
	seen := map[types.Object]bool{}
	stack := []types.Object{from}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == to {
			return true
		}
		if seen[cur] {
			continue
		}
		seen[cur] = true
		stack = append(stack, succs[cur]...)
	}
	return false
}

// sortedObjs orders a lock set by source position for deterministic
// edge insertion (and therefore deterministic messages).
func sortedObjs(set map[types.Object]bool) []types.Object {
	objs := make([]types.Object, 0, len(set))
	for o := range set {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	return objs
}

// lockFlow runs the may-hold dataflow over one unit and calls visit for
// every op with the lock set held just before it executes.
func lockFlow(u *unit, visit func(held map[types.Object]bool, o op)) {
	preds := map[*cfg.Block][]*cfg.Block{}
	for _, b := range u.graph.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	apply := func(held map[types.Object]bool, b *cfg.Block, visit func(map[types.Object]bool, op)) map[types.Object]bool {
		out := map[types.Object]bool{}
		for o := range held {
			out[o] = true
		}
		for _, o := range u.ops[b] {
			if visit != nil {
				visit(out, o)
			}
			if o.deferred {
				continue // releases (or acquires) only at return
			}
			switch o.kind {
			case opLock:
				out[o.obj] = true
			case opUnlock:
				delete(out, o.obj)
			}
		}
		return out
	}
	in := map[*cfg.Block]map[types.Object]bool{}
	out := map[*cfg.Block]map[types.Object]bool{}
	for _, b := range u.graph.Blocks {
		in[b], out[b] = map[types.Object]bool{}, map[types.Object]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range u.graph.Blocks {
			merged := map[types.Object]bool{}
			for _, pr := range preds[b] {
				for o := range out[pr] {
					merged[o] = true
				}
			}
			newOut := apply(merged, b, nil)
			if !sameSet(in[b], merged) || !sameSet(out[b], newOut) {
				in[b], out[b] = merged, newOut
				changed = true
			}
		}
	}
	for _, b := range u.graph.Blocks {
		apply(in[b], b, visit)
	}
}

func sameSet(a, b map[types.Object]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}
