package purity

// The per-function effect summaries and the fixpoint that closes them
// over the call graph, on the shared engine in internal/analysis
// (callgraph.go): the engine registers declarations, the scan below
// records each body's direct effects and call sites, and the engine's
// fixpoint runs propagate over every resolved edge, extending each
// propagated effect's call chain so diagnostics can print the exact
// entrypoint → callee → site path.
//
// Calls resolve inside the package unit by types.Object identity; the
// parsafe firewall links every certified package by symbol as well.
// Calls that stay unresolved get a conservative boundary treatment:
// sink-listed packages are impure, pointer-receiver methods may write
// their receiver, and passing a package-level variable with reference
// structure to an unsummarizable callee counts as a potential global
// write.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ookami/internal/analysis"
	"ookami/internal/analysis/cfg"
)

// funcInfo is the effect summary of one function declaration.
type funcInfo struct {
	analysis.Func
	// paramObjs holds the receiver (if any) followed by the parameters,
	// in signature order — the index space call-site operands map into.
	paramObjs []types.Object
	recvObj   types.Object // receiver object, nil for plain functions
	recvValue bool         // receiver is a non-pointer (value) receiver
	// effects is the deduplicated effect set; the fixpoint grows it to
	// the transitive closure.
	effects map[effectKey]*Effect
	// paramWrites maps a parameter/receiver object to the write-through
	// effect on it, for argument-to-parameter propagation.
	paramWrites map[types.Object]*Effect
	// recvMuts are the value-receiver embedded-pointer mutation sites.
	recvMuts []recvMutSite
}

type recvMutSite struct {
	node   ast.Node
	detail string
}

// addEffect records an effect if its (kind, detail) key is new.
func (fi *funcInfo) addEffect(e Effect) *Effect {
	if fi.effects == nil {
		fi.effects = map[effectKey]*Effect{}
	}
	if old, ok := fi.effects[e.key()]; ok {
		return old
	}
	cp := e
	fi.effects[cp.key()] = &cp
	return &cp
}

// summary is the effect model of one or more package units.
type summary = analysis.Graph[*funcInfo]

// summarize builds the summary for one package unit, scanning only
// non-test files, and closes it package-locally.
func summarize(p *analysis.Package) *summary {
	return summarizeUnits([]*analysis.Package{p}, false)
}

// summarizeUnits scans the units' declarations and closes their effects
// over one call graph. With link, calls resolve across the units by
// symbol (the parsafe firewall); without it, only inside each unit.
// Calls that stay unresolved get the conservative boundary treatment
// before the fixpoint runs.
func summarizeUnits(units []*analysis.Package, link bool) *summary {
	s := analysis.NewGraph(units, func(f analysis.Func) *funcInfo { return &funcInfo{Func: f} })
	for _, fi := range s.Funcs {
		fi.scan()
	}
	if link {
		s.Link()
	}
	for _, fi := range s.Funcs {
		fi.boundaryEffects(s)
	}
	s.Fixpoint(propagate)
	return s
}

// bindParams fills paramObjs/recvObj from the declaration.
func (fi *funcInfo) bindParams() {
	fd, defs := fi.Decl, fi.Pkg.Info.Defs
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		f := fd.Recv.List[0]
		if len(f.Names) == 1 {
			if obj := defs[f.Names[0]]; obj != nil {
				fi.recvObj = obj
				fi.paramObjs = append(fi.paramObjs, obj)
				_, isPtr := obj.Type().Underlying().(*types.Pointer)
				fi.recvValue = !isPtr
			}
		} else {
			fi.paramObjs = append(fi.paramObjs, nil) // unnamed receiver slot
		}
	}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			if len(f.Names) == 0 {
				fi.paramObjs = append(fi.paramObjs, nil)
				continue
			}
			for _, n := range f.Names {
				fi.paramObjs = append(fi.paramObjs, defs[n])
			}
		}
	}
}

// isParam reports whether obj is one of fi's parameters or receiver.
func (fi *funcInfo) isParam(obj types.Object) bool {
	if obj == nil {
		return false
	}
	for _, p := range fi.paramObjs {
		if p == obj {
			return true
		}
	}
	return false
}

// scan walks the declaration body (nested function literals included —
// a closure created here either runs here or is handed out, and either
// way its effects are this function's responsibility).
func (fi *funcInfo) scan() {
	p := fi.Pkg
	fi.bindParams()
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					continue
				}
				fi.addWrite(lhs)
			}
		case *ast.IncDecStmt:
			fi.addWrite(n.X)
		case *ast.SendStmt:
			fi.addEffect(Effect{Kind: EffectChan, Detail: "sends on channel " + cfg.Render(p.Fset, n.Chan), Site: n.Pos()})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fi.addEffect(Effect{Kind: EffectChan, Detail: "receives from channel", Site: n.Pos()})
			}
		case *ast.GoStmt:
			fi.addEffect(Effect{Kind: EffectSpawn, Detail: "spawns goroutine", Site: n.Pos()})
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Chan:
					fi.addEffect(Effect{Kind: EffectChan, Detail: "receives from channel", Site: n.Pos()})
				case *types.Map:
					fi.addEffect(Effect{Kind: EffectMapOrder, Detail: "ranges over map " + cfg.Render(p.Fset, n.X), Site: n.Pos()})
				}
			}
		case *ast.CallExpr:
			fi.scanCall(n)
		}
		return true
	})
}

// scanCall classifies one call expression.
func (fi *funcInfo) scanCall(call *ast.CallExpr) {
	p := fi.Pkg
	// Builtins with write/effect semantics.
	switch {
	case analysis.IsBuiltin(p, call, "close"):
		fi.addEffect(Effect{Kind: EffectChan, Detail: "closes channel", Site: call.Pos()})
		return
	case analysis.IsBuiltin(p, call, "copy"), analysis.IsBuiltin(p, call, "delete"), analysis.IsBuiltin(p, call, "clear"):
		if len(call.Args) > 0 {
			fi.addWrite(call.Args[0])
		}
		return
	case analysis.IsBuiltin(p, call, "print"), analysis.IsBuiltin(p, call, "println"):
		fi.addEffect(Effect{Kind: EffectSink, Detail: "writes stderr via builtin print", Site: call.Pos()})
		return
	}

	cs, ok := analysis.SiteOf(p, call)
	if !ok {
		// Not a named function: a conversion, a func literal invoked in
		// place (its body is scanned anyway), a call through a
		// function-typed parameter (purity is conditional on the
		// argument), or a stored function value (unsummarizable).
		fun := ast.Unparen(call.Fun)
		if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
			return
		}
		if _, ok := fun.(*ast.FuncLit); ok {
			return
		}
		base := resolveWrite(p, fun)
		if fi.isParam(base.obj) {
			return
		}
		if base.obj != nil && isPackageLevel(base.obj) {
			fi.addEffect(Effect{Kind: EffectDynCall,
				Detail: "calls through package-level function value " + cfg.Render(p.Fset, fun), Site: call.Pos()})
			return
		}
		// Local function variables: their possible bodies (literals in
		// this function) were scanned; calling them adds nothing new.
		if base.obj != nil {
			return
		}
		fi.addEffect(Effect{Kind: EffectDynCall, Detail: "calls through function value " + cfg.Render(p.Fset, fun), Site: call.Pos()})
		return
	}
	fn := cs.Fn

	// Interface method: unresolvable target. error.Error and String()
	// are conventionally pure accessors; everything else is a dynamic
	// call boundary.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if _, isIface := recv.Type().Underlying().(*types.Interface); isIface {
			if name := fn.Name(); name != "Error" && name != "String" {
				fi.addEffect(Effect{Kind: EffectDynCall, Detail: "calls interface method " + name, Site: call.Pos()})
			}
			return
		}
	}

	if kind, detail, ok := classifySinkCall(fn); ok {
		fi.addEffect(Effect{Kind: kind, Detail: detail, Site: call.Pos()})
		return
	}
	// sync/atomic is modeled precisely rather than through the pointer-
	// receiver boundary rule: Load is a read, everything else writes its
	// target (the receiver for the typed wrappers, &x for the functions).
	if analysis.FuncPkgPath(fn) == "sync/atomic" {
		if strings.HasPrefix(fn.Name(), "Load") {
			return
		}
		if cs.Recv != nil {
			if base := resolveWrite(p, cs.Recv).obj; base != nil {
				fi.mapWrite(base, fn, call.Pos())
			}
			return
		}
		if len(call.Args) > 0 {
			fi.addWrite(call.Args[0])
		}
		return
	}
	if lockMethod(fn) {
		detail := "lock/sync op ." + fn.Name()
		if cs.Recv != nil {
			detail = "lock/sync op " + cfg.Render(p.Fset, cs.Recv) + "." + fn.Name()
		}
		fi.addEffect(Effect{Kind: EffectLock, Detail: detail, Site: call.Pos()})
		return
	}
	fi.Calls = append(fi.Calls, cs)
}

// addWrite classifies a write to expression e.
func (fi *funcInfo) addWrite(e ast.Expr) {
	p := fi.Pkg
	wt := resolveWrite(p, e)
	if wt.obj == nil {
		return
	}
	switch {
	case isPackageLevel(wt.obj):
		fi.addEffect(Effect{Kind: EffectGlobal,
			Detail: "writes global " + globalName(p.Types, wt.obj), Site: e.Pos()})
	case fi.isParam(wt.obj) && wt.crossed:
		fi.addParamWrite(wt.obj, Effect{Kind: EffectParam,
			Detail: "writes through parameter " + wt.obj.Name(), Site: e.Pos()})
		if wt.obj == fi.recvObj && fi.recvValue && wt.fieldCrossed {
			fi.recvMuts = append(fi.recvMuts, recvMutSite{node: e,
				detail: "value receiver " + wt.obj.Name() + " mutates shared state through " + cfg.Render(p.Fset, e)})
		}
	}
}

// addParamWrite records a write through parameter obj, remembering the
// first such effect per parameter for argument-to-parameter mapping.
func (fi *funcInfo) addParamWrite(obj types.Object, e Effect) {
	eff := fi.addEffect(e)
	if fi.paramWrites == nil {
		fi.paramWrites = map[types.Object]*Effect{}
	}
	if _, ok := fi.paramWrites[obj]; !ok {
		fi.paramWrites[obj] = eff
	}
}

// boundaryEffects applies the conservative treatment of calls that stay
// unresolved in s: a pointer-receiver method may write through its
// receiver, and handing a package-level variable with reference
// structure to an unsummarizable callee is a potential global write.
func (fi *funcInfo) boundaryEffects(s *summary) {
	p := fi.Pkg
	for _, cs := range fi.Calls {
		if _, ok := s.Lookup(cs.Fn); ok {
			continue
		}
		if recv := cs.Fn.Type().(*types.Signature).Recv(); recv != nil && cs.Recv != nil {
			if _, isPtr := recv.Type().Underlying().(*types.Pointer); isPtr {
				if base := resolveWrite(p, cs.Recv).obj; base != nil {
					fi.mapWrite(base, cs.Fn, cs.Call.Pos())
				}
			}
		}
		for _, arg := range cs.Args {
			if base := resolveWrite(p, arg).obj; base != nil && isPackageLevel(base) && refLike(base.Type()) {
				fi.addEffect(Effect{Kind: EffectGlobal,
					Detail: "passes global " + globalName(p.Types, base) +
						" to unsummarizable call " + calleeName(cs.Fn), Site: cs.Call.Pos()})
			}
		}
	}
}

// mapWrite records that callee fn may write through base (a receiver or
// argument of a call in fi).
func (fi *funcInfo) mapWrite(base types.Object, fn *types.Func, pos token.Pos) {
	switch {
	case isPackageLevel(base):
		fi.addEffect(Effect{Kind: EffectGlobal,
			Detail: "writes global " + globalName(fi.Pkg.Types, base) + " via " + calleeName(fn), Site: pos})
	case fi.isParam(base):
		fi.addParamWrite(base, Effect{Kind: EffectParam,
			Detail: "writes through parameter " + base.Name() + " via " + calleeName(fn), Site: pos})
	}
}

// calleeName renders a callee for messages ("perfmodel.I", "LCG.Next").
func calleeName(fn *types.Func) string {
	if named := analysis.RecvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// propagate is the fixpoint's transfer function: it copies callee
// effects into the caller through one call site, mapping parameter
// writes through the call's operands. Chains extend by one frame per
// step; effects deduplicate on (kind, detail), so the fixpoint
// terminates. Returns whether anything new was recorded.
func propagate(fi *funcInfo, cs analysis.CallSite, callee *funcInfo) bool {
	before := len(fi.effects)

	// Non-parameter effects travel unconditionally, chain extended.
	for _, eff := range callee.effects {
		if eff.Kind == EffectParam {
			continue
		}
		if _, ok := fi.effects[eff.key()]; ok {
			continue
		}
		path := append([]Frame{{Func: callee.Name, Pos: cs.Call.Pos()}}, eff.Path...)
		fi.addEffect(Effect{Kind: eff.Kind, Detail: eff.Detail, Site: eff.Site, Path: path})
	}

	// Parameter writes map through the operands: writing through a
	// parameter the caller fed a global mutates the global; fed one of
	// the caller's own parameters, the effect stays a parameter write.
	if len(callee.paramWrites) > 0 {
		operands := cs.Args
		if callee.Decl.Recv != nil && len(callee.Decl.Recv.List) > 0 {
			operands = append([]ast.Expr{cs.Recv}, cs.Args...)
		}
		for i, pobj := range callee.paramObjs {
			if pobj == nil {
				continue
			}
			if _, writes := callee.paramWrites[pobj]; !writes {
				continue
			}
			j := min(i, len(operands)-1) // variadic tail
			if j < 0 || operands[j] == nil {
				continue
			}
			if base := resolveWrite(fi.Pkg, operands[j]).obj; base != nil {
				fi.mapWrite(base, cs.Fn, cs.Call.Pos())
			}
		}
	}
	return len(fi.effects) != before
}

// impureEffects returns fi's impure effects in stable (kind, detail)
// order.
func (fi *funcInfo) impureEffects() []*Effect {
	return fi.selectEffects(func(k EffectKind) bool { return k.Impure() })
}

// hiddenInputEffects returns the memoization-hazard effects.
func (fi *funcInfo) hiddenInputEffects() []*Effect {
	return fi.selectEffects(func(k EffectKind) bool { return k.HiddenInput() })
}

func (fi *funcInfo) selectEffects(want func(EffectKind) bool) []*Effect {
	var out []*Effect
	for _, e := range fi.effects {
		if want(e.Kind) {
			out = append(out, e)
		}
	}
	sortEffects(out)
	return out
}

// sortEffects orders by (kind, detail) for deterministic output.
func sortEffects(effs []*Effect) {
	for i := 1; i < len(effs); i++ {
		for j := i; j > 0; j-- {
			a, b := effs[j-1], effs[j]
			if a.Kind < b.Kind || (a.Kind == b.Kind && a.Detail <= b.Detail) {
				break
			}
			effs[j-1], effs[j] = b, a
		}
	}
}
