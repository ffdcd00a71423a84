package purity

// Effect vocabulary: what counts as a side effect, how sink packages
// are classified, and how a written-to expression resolves to the
// variable it ultimately mutates.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ookami/internal/analysis"
)

// EffectKind classifies one side effect of a function.
type EffectKind int

const (
	// EffectGlobal is a write to package-level state (direct, through a
	// pointer/index chain, or by passing the global to a mutating call).
	EffectGlobal EffectKind = iota
	// EffectParam is a write through a pointer/slice/map parameter or
	// receiver: caller-owned, so not impure for certification, but
	// recorded — a memoizer must not cache functions that fill outputs
	// it does not key on.
	EffectParam
	// EffectSink is a call into an unsummarizable impure package
	// (os, time.Now, global math/rand, reflect, syscall, cgo, stdout).
	EffectSink
	// EffectEnv reads the process environment (os.Getenv and friends) —
	// a sink, and specifically a hidden input for memoization.
	EffectEnv
	// EffectClock reads the wall clock (time.Now/Since/Until) — a sink,
	// and specifically a hidden input for memoization.
	EffectClock
	// EffectChan is a channel send, receive, close, or range.
	EffectChan
	// EffectLock is a mutex/RWMutex/WaitGroup/Once operation, or a call
	// into the simulated concurrency runtimes.
	EffectLock
	// EffectSpawn starts a goroutine.
	EffectSpawn
	// EffectMapOrder ranges over a map: iteration order is randomized,
	// so any result derived from the traversal is a hidden input.
	EffectMapOrder
	// EffectDynCall calls through an interface method or a stored
	// function value the summary cannot resolve. Calls through
	// function-typed parameters are exempt: the caller supplies them,
	// so purity is conditional on the argument, not broken by it.
	EffectDynCall
)

// String names the kind as it appears in messages and baselines.
func (k EffectKind) String() string {
	switch k {
	case EffectGlobal:
		return "global-write"
	case EffectParam:
		return "param-write"
	case EffectSink:
		return "sink"
	case EffectEnv:
		return "env-read"
	case EffectClock:
		return "clock-read"
	case EffectChan:
		return "chan-op"
	case EffectLock:
		return "lock-op"
	case EffectSpawn:
		return "spawn"
	case EffectMapOrder:
		return "map-order"
	case EffectDynCall:
		return "dyn-call"
	}
	return "unknown"
}

// Impure reports whether the effect breaks parallel-safety
// certification. Param writes are caller-owned; map-order dependence is
// a determinism hazard (hiddeninput) but not a data race.
func (k EffectKind) Impure() bool {
	switch k {
	case EffectParam, EffectMapOrder:
		return false
	}
	return true
}

// HiddenInput reports whether the effect makes a function's result
// depend on state outside its arguments — the memoization hazard.
func (k EffectKind) HiddenInput() bool {
	return k == EffectEnv || k == EffectClock || k == EffectMapOrder
}

// Frame is one step of an effect's call chain.
type Frame struct {
	Func string
	Pos  token.Pos // call site in the caller
}

// Effect is one summarized side effect with the path that reaches it.
type Effect struct {
	Kind   EffectKind
	Detail string    // stable description ("writes global serialLibCost")
	Site   token.Pos // originating site
	Path   []Frame   // call chain from the summarized function to Site
}

// key is the identity effects deduplicate on.
func (e Effect) key() effectKey { return effectKey{e.Kind, e.Detail} }

type effectKey struct {
	kind   EffectKind
	detail string
}

// Chain renders "F (a.go:3) → G (b.go:7): detail (c.go:12)".
func (e Effect) Chain(fset *token.FileSet) string {
	var sb strings.Builder
	for _, f := range e.Path {
		sb.WriteString(f.Func)
		sb.WriteString(" (")
		sb.WriteString(analysis.ShortPos(fset, f.Pos))
		sb.WriteString(") → ")
	}
	sb.WriteString(e.Detail)
	sb.WriteString(" (")
	sb.WriteString(analysis.ShortPos(fset, e.Site))
	sb.WriteString(")")
	return sb.String()
}

// runtimePackages are the module's simulated concurrency runtimes:
// calling into them spawns goroutines and takes locks the per-package
// summary cannot see, so every call is an EffectLock.
var runtimePackages = []string{
	"internal/bench",
	"internal/mpi",
	"internal/omp",
	"internal/trace",
}

// sinkPackages are stdlib packages any call into which is impure.
var sinkPackages = map[string]bool{
	"os":            true,
	"os/exec":       true,
	"os/signal":     true,
	"io/ioutil":     true,
	"net":           true,
	"net/http":      true,
	"syscall":       true,
	"reflect":       true,
	"runtime":       true,
	"runtime/debug": true,
	"log":           true,
	"C":             true, // cgo
}

// envFuncs are the os functions that read the process environment.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// clockFuncs are the time functions that read the wall clock.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// fmtPrintFuncs are the fmt functions that write to process stdout.
var fmtPrintFuncs = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Scan": true, "Scanln": true, "Scanf": true,
}

// classifySinkCall classifies a resolved callee as a sink effect, or
// returns ok=false when the callee is not sink-listed.
func classifySinkCall(fn *types.Func) (kind EffectKind, detail string, ok bool) {
	path := analysis.FuncPkgPath(fn)
	name := fn.Name()
	switch {
	case path == "os" && envFuncs[name]:
		return EffectEnv, "reads env via os." + name, true
	case path == "time" && clockFuncs[name]:
		return EffectClock, "reads clock via time." + name, true
	case path == "time" && analysis.RecvNamed(fn) == nil &&
		(name == "Sleep" || name == "After" || name == "Tick" || name == "NewTimer" || name == "NewTicker"):
		return EffectSink, "calls time." + name, true
	case (path == "math/rand" || path == "math/rand/v2") && analysis.RecvNamed(fn) == nil &&
		!strings.HasPrefix(name, "New"):
		// Top-level functions draw from the shared global source;
		// constructors (New, NewSource, NewPCG, ...) and methods on an
		// explicitly constructed generator are fine.
		return EffectSink, "draws from global " + path + "." + name, true
	case path == "fmt" && fmtPrintFuncs[name]:
		return EffectSink, "writes stdout via fmt." + name, true
	case sinkPackages[path]:
		return EffectSink, "calls " + path + "." + name, true
	}
	for _, rp := range runtimePackages {
		if analysis.PathHasSuffix(path, rp) {
			return EffectLock, "enters concurrency runtime " + rp + " via " + name, true
		}
	}
	return 0, "", false
}

// lockMethod reports whether fn is a synchronization-primitive method.
func lockMethod(fn *types.Func) bool {
	name := fn.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return analysis.IsMethodOn(fn, "sync", "Mutex", name) ||
			analysis.IsMethodOn(fn, "sync", "RWMutex", name) ||
			analysis.IsMethodOn(fn, "sync", "Locker", name)
	case "Add", "Done", "Wait":
		return analysis.IsMethodOn(fn, "sync", "WaitGroup", name)
	case "Do":
		return analysis.IsMethodOn(fn, "sync", "Once", name)
	case "Load", "Store", "Delete", "Range", "LoadOrStore", "LoadAndDelete", "Swap":
		return analysis.IsMethodOn(fn, "sync", "Map", name)
	}
	return false
}

// writeTarget describes where a written-to expression lands.
type writeTarget struct {
	obj     types.Object // base variable, nil if unresolvable
	crossed bool         // the write crossed a pointer/slice/map boundary
	// fieldCrossed: the boundary was crossed below the base (s.ptr.f,
	// s.slice[i]) rather than at it (*p, p.f with p itself a pointer) —
	// the recvmut shape for value receivers.
	fieldCrossed bool
}

// resolveWrite walks an assignable expression down to its base object,
// recording whether any step dereferenced a pointer or indexed into a
// slice/map — i.e. whether assigning mutates shared backing storage
// rather than rebinding a local copy.
func resolveWrite(p *analysis.Package, e ast.Expr) writeTarget {
	var wt writeTarget
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := p.Info.Uses[x]; o != nil {
				wt.obj = o
			} else {
				wt.obj = p.Info.Defs[x]
			}
			return wt
		case *ast.SelectorExpr:
			// Package-qualified name (pkg.Var): the selection map has no
			// entry, resolve the selector identifier directly.
			if _, ok := p.Info.Selections[x]; !ok {
				if o := p.Info.Uses[x.Sel]; o != nil {
					wt.obj = o
					return wt
				}
			}
			if t := p.Info.TypeOf(x.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					wt.crossed = true
					wt.fieldCrossed = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if t := p.Info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					wt.crossed = true
					wt.fieldCrossed = true
				}
			}
			e = x.X
		case *ast.StarExpr:
			wt.crossed = true
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
			return wt
		default:
			return wt
		}
	}
}

// isPackageLevel reports whether obj is a package-level variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// refLike reports whether t can reach shared storage when passed by
// value: pointers, slices, maps, channels, and composites containing
// them. Used to decide whether handing a package-level variable to an
// unsummarizable callee may mutate it.
func refLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return refLike(u.Elem())
	}
	return false
}

// globalName renders a package-level variable for messages/baselines:
// "serialLibCost" in-package, "pkg.Var" cross-package.
func globalName(home *types.Package, obj types.Object) string {
	if obj.Pkg() != nil && obj.Pkg() != home {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return obj.Name()
}
