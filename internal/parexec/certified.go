package parexec

import (
	"fmt"
	"sort"
)

// Cert names one certified-pure entry point: the package (repo-relative
// import path, as the parsafe baseline records it) and the function name
// in the baseline's Recv.Method / Func notation.
type Cert struct {
	Pkg  string
	Func string
}

// Dispatch is the engine's dispatch table: every model query the engine
// is willing to memoize, mapped to the certified-pure function that
// computes it. The parsafe firewall (cmd/ookami-vet, baseline
// internal/analysis/baseline/parsafe.json) is the source of truth;
// TestDispatchCertified cross-checks each entry against the recorded
// baseline so a query can only be added here after the purity analysis
// has certified its function. Queries not in this table panic at
// Engine.Run — the gate that keeps uncertified (potentially
// state-sharing) code out of the shared memo.
var Dispatch = map[string]Cert{
	"explain.Predict":            {Pkg: "internal/explain", Func: "Predict"},
	"toolchain.CyclesPerElement": {Pkg: "internal/toolchain", Func: "CompiledLoop.CyclesPerElement"},
}

// certify panics unless entry is in the dispatch table. It is called on
// every Engine.Run, so an uncertified query fails loudly on its first
// use — in tests and smoke runs, not silently in production sweeps.
func certify(entry string) {
	if _, ok := Dispatch[entry]; !ok {
		panic(fmt.Sprintf("parexec: query %q is not in the certified dispatch table; "+
			"certify the entry point with the parsafe firewall first", entry))
	}
}

// Entries returns the dispatch entry names in sorted order (for tests and
// diagnostics).
func Entries() []string {
	out := make([]string, 0, len(Dispatch))
	for k := range Dispatch {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
