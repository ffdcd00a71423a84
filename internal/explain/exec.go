package explain

// The Section IV calibration constants and the node-level execution
// parameters derived from them. These moved here from internal/figures
// so that both the figure generators and the serve API derive app
// predictions from one set of numbers; figures keeps an engine-memoized
// math-cost path, this package computes directly (it is itself cached at
// the response level by the server).

import (
	"ookami/internal/machine"
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

// IrregularPenalty is the OpenMP-runtime slowdown factor on irregular,
// dynamically scheduled loops (UA's rebuilt index lists): the Fujitsu and
// ARM runtimes handled them poorly in the paper's measurements — the
// residual deviance first-touch could not repair.
//
//ookami:pure static lookup
func IrregularPenalty(tc toolchain.Toolchain) float64 {
	switch tc.Name {
	case toolchain.Fujitsu.Name:
		return 1.9
	case toolchain.Arm.Name:
		return 1.6
	}
	return 1.0
}

// MathCost derives the per-call cycle cost of each math function for a
// toolchain on a machine from the instruction-level model: the Figure 2
// kernels are compiled and scheduled, and log is priced as exp plus one
// refinement step (vector libraries implement them with the same
// machinery). Nil when the machine has no instruction-level profile.
//
//ookami:pure compiles and schedules fresh bodies; the returned map is owned by the caller
func MathCost(tc toolchain.Toolchain, m machine.Machine) map[perfmodel.MathFn]float64 {
	prof, ok := perfmodel.ProfileFor(m.Name)
	if !ok {
		return nil
	}
	cost := make(map[perfmodel.MathFn]float64, 6)
	for _, l := range toolchain.MathLoops {
		fn, _ := l.MathFn()
		cost[fn] = tc.Compile(l, m).CyclesPerElement(prof)
	}
	cost[perfmodel.FnLog] = cost[perfmodel.FnExp] * 1.15
	return cost
}

// ExecFor builds the node-level execution parameters for running an
// application with vectorizable fraction vecFrac under toolchain tc on
// machine m. mathCost is MathCost(tc, m) or an equal memoized copy; the
// result owns it.
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
