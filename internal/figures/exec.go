// Package figures regenerates every table and figure of the paper's
// evaluation: the vector-loop suite (Figs. 1-2), the Section IV
// exponential study, the NPB results (Figs. 3-6), the LULESH timings
// (Table II / Fig. 7), the system table (Table III) and the HPCC results
// (Figs. 8-9). Each generator returns a stats.Table that can be rendered
// as text or CSV, and the package's tests assert the paper's qualitative
// shape for each one.
package figures

import (
	"ookami/internal/explain"
	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// The Section IV calibration (vector quality, scalar IPC, barrier and
// irregular-loop costs) lives in internal/explain so the serve API and
// the figure generators price applications identically; this file keeps
// only the engine-memoized math-cost derivation, which is worth caching
// here because every NPB workload of Figures 3-6 prices the same five
// loops.

// mathCostFor derives the per-call cycle cost of each math function for a
// toolchain on a machine from the instruction-level model (see
// explain.MathCost for the direct form). Each loop's cycle cost is a
// certified engine query, so the many ExecFor calls that share a
// (toolchain, machine) pair compile and schedule them once. The returned
// map is freshly built per call: ExecParams owns its MathCost.
func mathCostFor(tc toolchain.Toolchain, m machine.Machine) map[perfmodel.MathFn]float64 {
	if _, ok := perfmodel.ProfileFor(m.Name); !ok {
		return nil
	}
	cost := make(map[perfmodel.MathFn]float64, 6)
	for _, l := range toolchain.MathLoops {
		fn, _ := l.MathFn()
		cost[fn] = engine.LoopCycles(tc, l, m)
	}
	cost[perfmodel.FnLog] = cost[perfmodel.FnExp] * 1.15
	return cost
}

// ExecFor builds the node-level execution parameters for running an
// application with vectorizable fraction vecFrac under toolchain tc on
// machine m. It is explain.ExecFor with the math costs routed through
// the package engine's memo.
func ExecFor(tc toolchain.Toolchain, m machine.Machine, vecFrac float64) perfmodel.ExecParams {
	peakFlopsPerCycle := float64(2 * m.FMAPipes * m.VectorLanes64())
	vec := vecFrac * peakFlopsPerCycle * explain.VecQuality(tc)
	scalar := (1 - vecFrac) * explain.ScalarIPC(m)
	return perfmodel.ExecParams{
		CyclesPerFlop: 1 / (vec + scalar),
		MathCost:      mathCostFor(tc, m),
		Placement:     tc.Placement,
		BarrierCycles: explain.BarrierCycles(tc),
	}
}
