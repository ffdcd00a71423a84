package explain

// The Section IV calibration constants, the node-level execution
// parameters derived from them, and the application model built on both.
// The figure generators and the serve API price applications through
// this one path. They differ in how a loop's cycles are obtained:
// figures pass an engine-memoized query, Predict compiles directly, and
// a PairPrices table reads them off its priced loops.

import (
	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// VecQuality is the SIMD code-generation quality factor of each toolchain
// on its target (fraction of the vector units' arithmetic throughput the
// compiled loops sustain). GCC's A64FX backend is competitive — the paper
// finds it best on most NPB kernels — while its missing math library is
// accounted separately through the math costs.
//
//ookami:pure static lookup
func VecQuality(tc toolchain.Toolchain) float64 {
	switch tc.Name {
	case toolchain.Fujitsu.Name:
		return 0.34
	case toolchain.Cray.Name:
		return 0.31
	case toolchain.Arm.Name:
		return 0.27
	case toolchain.GNU.Name:
		return 0.36
	default: // Intel
		return 0.50
	}
}

// ScalarIPC is the sustained scalar instructions-per-cycle of compiled
// scalar code (the A64FX's weak out-of-order core versus Skylake).
//
//ookami:pure static lookup
func ScalarIPC(m machine.Machine) float64 {
	if m.ISA == machine.SVE {
		return 1.0
	}
	return 2.5
}

// BarrierCycles models the cost of one OpenMP barrier per runtime. The
// ARM runtime's barriers measured noticeably more expensive on A64FX in
// the paper's era, part of its BT/UA deviance.
//
//ookami:pure static lookup
func BarrierCycles(tc toolchain.Toolchain) float64 {
	if tc.Name == toolchain.Arm.Name {
		return 15000
	}
	return 5000
}

// irregularPenalty is the OpenMP-runtime slowdown factor on irregular,
// dynamically scheduled loops (UA's rebuilt index lists): the Fujitsu and
// ARM runtimes handled them poorly in the paper's measurements — the
// residual deviance first-touch could not repair.
//
//ookami:pure static lookup
func irregularPenalty(tc toolchain.Toolchain) float64 {
	switch tc.Name {
	case toolchain.Fujitsu.Name:
		return 1.9
	case toolchain.Arm.Name:
		return 1.6
	}
	return 1.0
}

// MathCost derives the per-call cycle cost of each math function for a
// toolchain on machine m from the instruction-level model: loopCycles
// prices each Figure 2 kernel in cycles per element, and log is priced
// as exp plus one refinement step (vector libraries implement them with
// the same machinery). Nil when m has no instruction-level profile.
//
//ookami:pure builds a fresh map owned by the caller; loopCycles is a pure pricing of one loop
func MathCost(m machine.Machine, loopCycles func(toolchain.Loop) float64) map[perfmodel.MathFn]float64 {
	if _, ok := perfmodel.ProfileFor(m.Name); !ok {
		return nil
	}
	cost := make(map[perfmodel.MathFn]float64, 6)
	for _, l := range toolchain.MathLoops {
		fn, _ := l.MathFn()
		cost[fn] = loopCycles(l)
	}
	cost[perfmodel.FnLog] = cost[perfmodel.FnExp] * 1.15
	return cost
}

// compiledCycles prices tc's loops on m by compiling each one afresh,
// with what CompiledLoop.CyclesPerElement returns. The schedules run on
// one perfmodel.Scheduler's buffers, as in PricePair, so the five math
// loops of an app request share them. m must have an instruction-level
// profile.
//
//ookami:pure the returned closure compiles fresh bodies and schedules them on a Scheduler that only it holds
func compiledCycles(tc toolchain.Toolchain, m machine.Machine) func(toolchain.Loop) float64 {
	prof, _ := perfmodel.ProfileFor(m.Name)
	var sc perfmodel.Scheduler
	return func(l toolchain.Loop) float64 {
		c := tc.Compile(l, m)
		if !c.Vectorized {
			return c.SerialCyclesPerElem
		}
		return sc.CyclesPerIter(prof, c.Body) / float64(c.ElemsPerIter)
	}
}

// ExecFor builds the node-level execution parameters for running an
// application with vectorizable fraction vecFrac under toolchain tc on
// machine m. mathCost is a MathCost map; the result holds it and only
// reads it.
//
//ookami:pure assembles parameters from the pure helpers above
func ExecFor(tc toolchain.Toolchain, m machine.Machine, vecFrac float64, mathCost map[perfmodel.MathFn]float64) perfmodel.ExecParams {
	peakFlopsPerCycle := float64(2 * m.FMAPipes * m.VectorLanes64())
	vec := vecFrac * peakFlopsPerCycle * VecQuality(tc)
	scalar := (1 - vecFrac) * ScalarIPC(m)
	return perfmodel.ExecParams{
		CyclesPerFlop: 1 / (vec + scalar),
		MathCost:      mathCost,
		Placement:     tc.Placement,
		BarrierCycles: BarrierCycles(tc),
	}
}

// AppTime models NPB application name, characterized as st at class C,
// under toolchain tc on machine m at the given thread count: the Section
// V node model behind Figs. 3-6 and the served app predictions. The
// toolchain's placement and the math costs that loopCycles prices feed
// ExecFor, and the node model splits the time into its parts. Irregular,
// dynamically scheduled loops (UA) then pay the OpenMP-runtime penalty
// the paper observed for Fujitsu and ARM. The penalty multiplies the
// combined total first, then each part, so total is the penalized sum,
// not a re-sum of the penalized parts.
//
//ookami:pure node-model evaluation; loopCycles is a pure pricing of one loop
func AppTime(tc toolchain.Toolchain, m machine.Machine, name string, st npb.Stats, threads int, loopCycles func(toolchain.Loop) float64) (parts perfmodel.NodeTimeParts, total float64) {
	return appTime(tc, m, name, st, threads, MathCost(m, loopCycles))
}

// appTime is AppTime on a math-cost map already built: the node model
// only reads the map, so a PairPrices table passes its own.
func appTime(tc toolchain.Toolchain, m machine.Machine, name string, st npb.Stats, threads int, mathCost map[perfmodel.MathFn]float64) (parts perfmodel.NodeTimeParts, total float64) {
	exec := ExecFor(tc, m, st.VecFrac, mathCost)
	parts = perfmodel.NodeTimeBreakdown(m, st.AppProfile(name), exec, threads)
	total = parts.Total()
	if st.TouchChurn > 0.3 && threads > 1 {
		pen := irregularPenalty(tc)
		total *= pen
		parts.Serial *= pen
		parts.Parallel *= pen
		parts.Memory *= pen
		parts.Sync *= pen
	}
	return parts, total
}
