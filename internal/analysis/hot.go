package analysis

import (
	"go/ast"
	"strings"
)

// KernelPackages are the packages holding the paper's performance
// kernels — the code whose emitted shape (vectorizability, allocation
// behaviour, bounds checks) the reproduction's credibility rests on.
// Every function in them is hot by default; setup and assembly code
// opts out with a `//ookami:cold` marker in its doc comment.
var KernelPackages = []string{
	"internal/blas",
	"internal/fft",
	"internal/hpcc",
	"internal/loops",
	"internal/lulesh",
	"internal/npb",
	"internal/stencil",
	"internal/sve",
	"internal/vmath",
}

// MarkedHotPackages are the packages outside KernelPackages that hold
// //ookami:hot functions. Listing one here makes none of its functions
// hot; it only adds the package to the compilerdiag firewall's default
// scope, so every hot function has an allocation gate.
var MarkedHotPackages = []string{
	"internal/trace",
}

// IsKernelPackage reports whether an import path names one of the
// kernel packages (external test packages included).
func IsKernelPackage(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, k := range KernelPackages {
		if PathHasSuffix(path, k) {
			return true
		}
	}
	return false
}

// funcMarker scans a declaration's doc comment for //ookami:hot or
// //ookami:cold markers, returning "hot", "cold" or "".
func funcMarker(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		switch {
		case text == "ookami:hot" || strings.HasPrefix(text, "ookami:hot "):
			return "hot"
		case text == "ookami:cold" || strings.HasPrefix(text, "ookami:cold "):
			return "cold"
		}
	}
	return ""
}

// PureFuncDecl reports whether a declaration carries the //ookami:pure
// marker — the certification that the function (transitively) performs
// no parallel-unsafe effect: no package-level writes, no sink calls
// (os, wall clock, global rng, reflect/cgo), no channel/lock operations
// and no goroutine spawns. Writes through caller-owned parameters are
// allowed. The purity analyzers enforce the claim; the parsafe
// firewall of `ookami-vet` records the certified set into a committed
// baseline.
func PureFuncDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "ookami:pure" || strings.HasPrefix(text, "ookami:pure ") {
			return true
		}
	}
	return false
}

// HotFuncDecl reports whether a function declaration is on the hot
// path: explicitly marked //ookami:hot anywhere, or any unmarked
// function of a kernel package (//ookami:cold opts out).
func HotFuncDecl(pkgPath string, fd *ast.FuncDecl) bool {
	switch funcMarker(fd.Doc) {
	case "hot":
		return true
	case "cold":
		return false
	}
	return IsKernelPackage(pkgPath)
}

// hotFuncDecls returns the hot function declarations of the package's
// non-test files.
func hotFuncDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, fd := range p.FuncDecls() {
		if HotFuncDecl(p.Path, fd) {
			out = append(out, fd)
		}
	}
	return out
}

// FuncDisplayName renders a declaration's name for diagnostics:
// "Name" for plain functions, "Recv.Name" for methods.
func FuncDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
