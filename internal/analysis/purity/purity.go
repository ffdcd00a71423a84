// Package purity is the interprocedural purity and parallel-safety
// layer of the analysis suite. The ROADMAP's next steps — batch/vector
// fast-path execution, ookami-tune sweeps of thousands of simulations —
// all want to run many (kernel, config) simulations concurrently on a
// worker pool and memoize their results. That is only safe if the
// simulation entry points are provably free of shared mutable state and
// hidden nondeterminism, so this package proves it *before* the
// parallelization lands.
//
// Per function declaration the pass computes an effect summary (see
// summary.go): writes to package-level variables, writes through
// pointer/slice/map parameters and receivers, calls into unsummarizable
// sinks (os, time.Now, the global math/rand source, reflect, syscall,
// cgo), channel and lock operations, goroutine spawns, and
// map-iteration-order dependence. A fixpoint over the package-local
// call graph closes the summaries transitively, and every propagated
// effect carries the call chain that introduced it, so a finding names
// the exact entrypoint → callee path → global/sink route.
//
// Four analyzers consume the summaries:
//
//   - purity: a function marked //ookami:pure transitively performs a
//     parallel-unsafe effect (global write, sink call, channel/lock op,
//     goroutine spawn). Writes through caller-owned parameters are NOT
//     impure — a worker that owns its arguments may fill them.
//   - globalmut: mutable package-level state written (transitively) by
//     a hot function — a race between the threads of the omp.Team
//     regions hot kernels run in.
//   - hiddeninput: a certified (//ookami:pure) entry point whose result
//     depends on env vars, the wall clock, or map-iteration order — the
//     memoization/cache-key hazard.
//   - recvmut: a value-receiver method that mutates through an embedded
//     pointer/slice/map, defeating the "copy the config, it's safe"
//     idiom.
//
// The per-package analyzers resolve calls inside the package unit;
// module-internal cross-package calls are closed over by the
// parsafe firewall of `ookami-vet` (parsafe.go), which links the
// summaries of the whole certified surface across packages. Calls into the simulated concurrency runtimes
// (internal/{omp,mpi,trace,bench}) are always impure. All analyzers
// skip _test.go files.
package purity

import "ookami/internal/analysis"

// Analyzers returns the purity suite in stable order. cmd/ookami-vet
// appends these to the core and concurrency suites.
func Analyzers() []analysis.Analyzer {
	return []analysis.Analyzer{
		Purity{},
		GlobalMut{},
		HiddenInput{},
		RecvMut{},
	}
}
