package analysis

import (
	"go/ast"
	"go/types"
)

// SyncHygiene flags synchronization patterns that hang or race the
// goroutine-based simulated runtimes:
//
//   - wg.Add called inside the spawned goroutine — it races the
//     corresponding wg.Wait, which can return before the goroutine is
//     counted (the runtime then "loses" a worker);
//   - wg.Done called as a plain statement rather than deferred — a panic
//     between spawn and Done deadlocks every waiter;
//   - unbuffered channels created in non-test files of internal/mpi —
//     the collectives' ordered send-then-receive pattern is deadlock-free
//     only because mailboxes are buffered; an unbuffered channel
//     reintroduces the rendezvous that stalls ranks.
type SyncHygiene struct{}

// mpiPackage scopes the unbuffered-channel rule.
const mpiPackage = "internal/mpi"

// Name implements Analyzer.
func (SyncHygiene) Name() string { return "synchygiene" }

// Doc implements Analyzer.
func (SyncHygiene) Doc() string {
	return "flags wg.Add in spawned goroutines, non-deferred wg.Done, and unbuffered channels in internal/mpi"
}

// Run implements Analyzer.
func (SyncHygiene) Run(p *Package) []Diagnostic {
	var diags []Diagnostic
	mpi := PathHasSuffix(p.Path, mpiPackage)
	for _, f := range p.Files {
		testFile := p.IsTestFile(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					ast.Inspect(lit.Body, func(inner ast.Node) bool {
						call, ok := inner.(*ast.CallExpr)
						if ok && IsMethodOn(CalleeFunc(p, call), "sync", "WaitGroup", "Add") {
							diags = append(diags, p.Diag(SyncHygiene{}.Name(), call,
								"wg.Add inside the spawned goroutine races wg.Wait; Add before the go statement"))
						}
						return true
					})
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if IsMethodOn(CalleeFunc(p, call), "sync", "WaitGroup", "Done") {
						diags = append(diags, p.Diag(SyncHygiene{}.Name(), call,
							"wg.Done should be deferred so a panic cannot deadlock wg.Wait"))
					}
				}
			case *ast.CallExpr:
				if !mpi || testFile {
					return true
				}
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) == 1 {
					if t := p.Info.TypeOf(n.Args[0]); t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							diags = append(diags, p.Diag(SyncHygiene{}.Name(), n,
								"unbuffered channel in the MPI runtime: collectives rely on buffered sends to stay deadlock-free"))
						}
					}
				}
			}
			return true
		})
	}
	return diags
}
