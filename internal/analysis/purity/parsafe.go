package purity

// The parallel-safety firewall. Mirroring the compilerdiag and
// concsurface firewalls, the parsafe gate of `ookami-vet` takes every
// package of the certified surface from the run's shared loader, links
// their effect summaries into a single cross-package call graph, closes
// it to a fixpoint, and
// records each //ookami:pure entry point with its accepted effect set
// into a committed baseline. A certified function gaining an impure or
// hidden-input effect — or losing its marker — fails `make check` until
// the change is acknowledged with -update-baseline. The memo engine
// (internal/parexec) relies on the certified set: one memo of each
// query in its Dispatch table serves concurrent callers (the figure
// generators parexec.Map runs, ookami-serve's handlers), and
// TestDispatchCertified admits only certified functions there.

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"ookami/internal/analysis"
)

// ParsafePackages is the default certified surface: the model/emulator
// core the memo engine's dispatched queries call into, plus every kernel
// package whose simulate/run functions feed the bench registry.
var ParsafePackages = []string{
	"internal/blas",
	"internal/cache",
	"internal/explain",
	"internal/fft",
	"internal/hpcc",
	"internal/loops",
	"internal/lulesh",
	"internal/machine",
	"internal/npb",
	"internal/perfmodel",
	"internal/rng",
	"internal/roofline",
	"internal/stats",
	"internal/stencil",
	"internal/sve",
	"internal/toolchain",
	"internal/vmath",
}

// CertifiedEffect is one effect of a certified entry point, rendered
// two ways: a churn-stable key for the baseline and a chain with
// file:line frames for failure output.
type CertifiedEffect struct {
	Kind   string
	Detail string
	Chain  string
	Impure bool
	Hidden bool
}

// baselineKey is the stable identity an effect diffs on.
func (e CertifiedEffect) baselineKey() string { return e.Kind + ": " + e.Detail }

// CertifiedFunc is one //ookami:pure entry point with its computed
// transitive effect set.
type CertifiedFunc struct {
	Package string // module-relative directory ("internal/perfmodel")
	Func    string
	File    string // module-relative path of the declaration
	Effects []CertifiedEffect
}

// ParsafeEntry is the committed form of one certified entry point.
type ParsafeEntry struct {
	Package string   `json:"package"`
	Func    string   `json:"func"`
	File    string   `json:"file"`
	Effects []string `json:"effects,omitempty"`
}

// ParsafeBaseline is the committed certification record.
type ParsafeBaseline struct {
	Packages []string       `json:"packages"`
	Entries  []ParsafeEntry `json:"entries"`
}

// CollectParsafe loads the packages (module-relative directories),
// links every package's effect summaries into one call graph, runs the
// global fixpoint, and returns the certified entry points sorted by
// (package, func).
func CollectParsafe(l *analysis.Loader, pkgs []string) ([]CertifiedFunc, error) {
	if len(pkgs) == 0 {
		pkgs = ParsafePackages
	}
	var units []*analysis.Package
	dirOf := map[*analysis.Package]string{}
	for _, pkg := range pkgs {
		loaded, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(pkg)))
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", pkg, err)
		}
		for _, u := range loaded {
			if !strings.HasSuffix(u.Path, "_test") {
				units = append(units, u)
				dirOf[u] = pkg
			}
		}
	}
	s := summarizeUnits(units, true)

	prefix := l.ModuleRoot + string(filepath.Separator)
	var out []CertifiedFunc
	for _, fi := range s.Funcs {
		if !analysis.PureFuncDecl(fi.Decl) {
			continue
		}
		pos := fi.Pkg.Fset.Position(fi.Decl.Pos())
		cf := CertifiedFunc{
			Package: dirOf[fi.Pkg],
			Func:    fi.Name,
			File:    filepath.ToSlash(strings.TrimPrefix(pos.Filename, prefix)),
		}
		for _, e := range fi.selectEffects(func(EffectKind) bool { return true }) {
			cf.Effects = append(cf.Effects, CertifiedEffect{
				Kind:   e.Kind.String(),
				Detail: e.Detail,
				Chain:  e.Chain(fi.Pkg.Fset),
				Impure: e.Kind.Impure(),
				Hidden: e.Kind.HiddenInput(),
			})
		}
		out = append(out, cf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package != out[j].Package {
			return out[i].Package < out[j].Package
		}
		return out[i].Func < out[j].Func
	})
	return out, nil
}

// BuildParsafeBaseline renders certified functions into the committed
// form in stable order.
func BuildParsafeBaseline(pkgs []string, funcs []CertifiedFunc) ParsafeBaseline {
	if len(pkgs) == 0 {
		pkgs = ParsafePackages
	}
	base := ParsafeBaseline{Packages: pkgs}
	for _, cf := range funcs {
		e := ParsafeEntry{Package: cf.Package, Func: cf.Func, File: cf.File}
		for _, eff := range cf.Effects {
			e.Effects = append(e.Effects, eff.baselineKey())
		}
		base.Entries = append(base.Entries, e)
	}
	return base
}

// DiffParsafe compares the current certified set against the baseline.
// Regressions (fail the gate): a baseline entry point that is no longer
// certified, or one that gained an impure or hidden-input effect.
// Notes: effects that disappeared (re-record to tighten), parameter
// writes that appeared (the memoization contract changed), and newly
// certified entry points not yet recorded.
func DiffParsafe(base ParsafeBaseline, funcs []CertifiedFunc) (regressions, notes []string) {
	type entryKey struct{ pkg, fn string }
	accepted := map[entryKey]map[string]bool{}
	for _, e := range base.Entries {
		set := map[string]bool{}
		for _, eff := range e.Effects {
			set[eff] = true
		}
		accepted[entryKey{e.Package, e.Func}] = set
	}
	seen := map[entryKey]bool{}
	for _, cf := range funcs {
		k := entryKey{cf.Package, cf.Func}
		seen[k] = true
		okEffects, known := accepted[k]
		if !known {
			notes = append(notes, fmt.Sprintf(
				"%s: new certified entry point %s — record it with -update-baseline", cf.Package, cf.Func))
			okEffects = map[string]bool{}
		}
		current := map[string]bool{}
		for _, eff := range cf.Effects {
			current[eff.baselineKey()] = true
			if okEffects[eff.baselineKey()] {
				continue
			}
			switch {
			case eff.Impure || eff.Hidden:
				if known {
					regressions = append(regressions, fmt.Sprintf(
						"%s: certified entry point %s gained %s: %s",
						cf.File, cf.Func, eff.Kind, eff.Chain))
				}
			default:
				notes = append(notes, fmt.Sprintf(
					"%s: %s gained %s (%s) — the memoization contract changed; re-record to acknowledge",
					cf.File, cf.Func, eff.Kind, eff.Detail))
			}
		}
		for eff := range okEffects {
			if !current[eff] {
				notes = append(notes, fmt.Sprintf(
					"%s: %s no longer has accepted effect %q — baseline can be tightened", cf.File, cf.Func, eff))
			}
		}
	}
	for _, e := range base.Entries {
		if !seen[entryKey{e.Package, e.Func}] {
			regressions = append(regressions, fmt.Sprintf(
				"%s: certified entry point %s is gone — ookami:pure marker removed or function deleted; "+
					"the memo engine's Dispatch table may still name it (TestDispatchCertified)", e.File, e.Func))
		}
	}
	sort.Strings(regressions)
	sort.Strings(notes)
	return regressions, notes
}
