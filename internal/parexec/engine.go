// Package parexec is the certified simulation engine: a singleflight
// memo cache for (kernel, config) model queries, plus Map, a stateless
// fan-out of independent work across GOMAXPROCS goroutines. The engine
// only memoizes entry points that the interprocedural purity analysis
// has certified pure (internal/analysis/baseline/parsafe.json) — the
// dispatch table in certified.go names them, and a test cross-checks
// every entry against the recorded baseline. That gate is what makes a
// shared cache trustworthy under concurrent callers: a query that could
// touch shared mutable state never enters it, so a memoized sweep is
// bit-identical to the direct computation however it is scheduled.
package parexec

import (
	"fmt"
	"math"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// Engine exposes the typed, certification-gated model queries the
// drivers use, each answered through the singleflight memo. It is safe
// for concurrent use.
type Engine struct {
	memo Memo
}

// NewSerial returns an engine with an empty memo: queries run inline on
// the caller's goroutine, repeated queries hit the cache, and the cache
// keeps at most 4096 entries, least recently used out first.
func NewSerial() *Engine {
	return &Engine{}
}

// Close releases the engine. The engine owns no goroutines, so there is
// nothing to join; Close exists so callers can defer it unconditionally.
func (e *Engine) Close() {}

// MemoMetrics snapshots the memo cache's full counter set (hits, misses,
// evictions, size, capacity).
func (e *Engine) MemoMetrics() MemoMetrics {
	return e.memo.Metrics()
}

// Run executes one certified model query: entry must name a dispatch-table
// entry (panics otherwise — the purity gate), key identifies the full
// input tuple, and fn computes the value on a cache miss.
func (e *Engine) Run(entry, key string, fn func() any) any {
	certify(entry)
	return e.memo.Do(entry+"|"+key, fn)
}

// LoopCycles returns the modeled cycles/element of loop l compiled by tc
// for machine m — the repo's single most repeated simulation query
// (every figure and math-cost derivation re-runs it). The memo key is the
// full query tuple: toolchain name and version, loop id, machine name.
// NaN when the machine has no instruction-level profile.
func (e *Engine) LoopCycles(tc toolchain.Toolchain, l toolchain.Loop, m machine.Machine) float64 {
	key := fmt.Sprintf("%s|%s|%d|%s", tc.Name, tc.Version, int(l), m.Name)
	v := e.Run("toolchain.CyclesPerElement", key, func() any {
		prof, ok := perfmodel.ProfileFor(m.Name)
		if !ok {
			return math.NaN()
		}
		return tc.Compile(l, m).CyclesPerElement(prof)
	})
	return v.(float64)
}
