package purity

// The four analyzers over the effect summaries. Each runs per package
// unit; the cross-package closure of the same facts is enforced by the
// parsafe firewall (parsafe.go).

import (
	"ookami/internal/analysis"
)

// Purity flags functions marked //ookami:pure that transitively perform
// a parallel-unsafe effect, reporting the exact effect chain.
type Purity struct{}

func (Purity) Name() string { return "purity" }
func (Purity) Doc() string {
	return "//ookami:pure function transitively writes shared state, calls a sink, or uses channels/locks"
}

func (Purity) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		if !analysis.PureFuncDecl(fi.Decl) {
			continue
		}
		for _, eff := range fi.impureEffects() {
			diags = append(diags, p.Diag("purity", fi.Decl.Name,
				"%s is marked ookami:pure but %s: %s",
				fi.Name, eff.Kind, eff.Chain(p.Fset)))
		}
	}
	return diags
}

// GlobalMut flags mutable package-level state written by hot functions.
// Hot kernels run on several goroutines at once inside omp.Team
// regions, so each such write is a race between the team's threads.
type GlobalMut struct{}

func (GlobalMut) Name() string { return "globalmut" }
func (GlobalMut) Doc() string {
	return "hot function (transitively) writes package-level state, racing across omp.Team threads"
}

func (GlobalMut) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		if !analysis.HotFuncDecl(p.Path, fi.Decl) {
			continue
		}
		for _, eff := range fi.selectEffects(func(k EffectKind) bool { return k == EffectGlobal }) {
			diags = append(diags, p.Diag("globalmut",
				fi.Decl.Name, "hot function %s %s: %s — concurrent workers would race on it",
				fi.Name, eff.Kind, eff.Chain(p.Fset)))
		}
	}
	return diags
}

// HiddenInput flags certified entry points whose result depends on env
// vars, the wall clock, or map-iteration order — inputs a result cache
// cannot key on.
type HiddenInput struct{}

func (HiddenInput) Name() string { return "hiddeninput" }
func (HiddenInput) Doc() string {
	return "//ookami:pure function reads env/clock or ranges over a map: un-cacheable hidden input"
}

func (HiddenInput) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		if !analysis.PureFuncDecl(fi.Decl) {
			continue
		}
		for _, eff := range fi.hiddenInputEffects() {
			diags = append(diags, p.Diag("hiddeninput",
				fi.Decl.Name, "certified entry point %s depends on a hidden input (%s): %s — memoized results would be wrong",
				fi.Name, eff.Kind, eff.Chain(p.Fset)))
		}
	}
	return diags
}

// RecvMut flags value-receiver methods that mutate shared state through
// an embedded pointer, slice, or map — the copy looks safe but isn't.
type RecvMut struct{}

func (RecvMut) Name() string { return "recvmut" }
func (RecvMut) Doc() string {
	return "value-receiver method mutates through an embedded pointer/slice/map: copying does not isolate it"
}

func (RecvMut) Run(p *analysis.Package) []analysis.Diagnostic {
	s := summarize(p)
	var diags []analysis.Diagnostic
	for _, fi := range s.Funcs {
		for _, site := range fi.recvMuts {
			diags = append(diags, p.Diag("recvmut", site.node,
				"%s: %s — \"copy the receiver, it's safe\" does not hold", fi.Name, site.detail))
		}
	}
	return diags
}
