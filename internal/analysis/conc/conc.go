// Package conc is the concurrency-correctness layer of the analysis
// suite: an interprocedural pass over the loader/CFG/def-use machinery
// in internal/analysis that understands goroutines, locks, WaitGroups
// and channels well enough to catch the bugs `go vet` and even `-race`
// routinely miss — inconsistent lock orderings that only deadlock under
// load, goroutines with no join edge that leak across benchmark
// repetitions, atomics mixed with plain access on another code path,
// and WaitGroup/mutex protocol violations that happen to pass today's
// schedules.
//
// The pass has two layers. A per-package summary (see summary.go)
// records, for every function declaration, which locks it may acquire,
// which join signals (WaitGroup.Done, channel send/close) it may emit,
// and which package-local functions it calls; transitive closures over
// the call graph (the shared engine in internal/analysis, which the
// purity pass uses too) make the per-function facts interprocedural.
// The five
// analyzers — lockorder, goleak, atomicmix, wgmisuse, locksync — then
// combine the summaries with per-body CFGs from internal/analysis/cfg.
//
// All analyzers skip _test.go files: test helpers synchronize through
// the testing package in ways the summaries cannot see, and the
// runtimes' invariants are what the pass exists to protect.
package conc

import "ookami/internal/analysis"

// Analyzers returns the concurrency suite in stable order. cmd/ookami-vet
// appends these to analysis.All().
func Analyzers() []analysis.Analyzer {
	return []analysis.Analyzer{
		LockOrder{},
		GoLeak{},
		AtomicMix{},
		WGMisuse{},
		LockSync{},
	}
}
