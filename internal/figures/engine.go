package figures

import (
	"ookami/internal/machine"
	"ookami/internal/parexec"
	"ookami/internal/toolchain"
)

// engine is the certified simulation engine behind the generators: every
// model query they repeat goes through its memo. The engine only
// memoizes queries whose entry points are in parexec's certified
// dispatch table, so generated figures are bit-identical to the direct
// computation — the golden tests pin that.
//
// This package is deliberately outside the parsafe-certified set: holding
// a reference to the (internally synchronized, mutable) engine here keeps
// the certified kernel and model packages free of shared state.
var engine = parexec.NewSerial()

// SetEngine installs eng for subsequent generator calls; nil installs a
// fresh, empty engine. Call before generating; the variable is not
// synchronized against concurrent generators.
func SetEngine(eng *parexec.Engine) {
	if eng == nil {
		eng = parexec.NewSerial()
	}
	engine = eng
}

// ActiveEngine returns the installed engine (never nil).
func ActiveEngine() *parexec.Engine { return engine }

// engineCycles prices tc's loops on m through the engine's memo: the
// loop-cycles source the generators hand to explain.MathCost and
// explain.AppTime, so every NPB and LULESH point that shares a
// (toolchain, machine) pair compiles and schedules its math loops once.
func engineCycles(tc toolchain.Toolchain, m machine.Machine) func(toolchain.Loop) float64 {
	return func(l toolchain.Loop) float64 { return engine.LoopCycles(tc, l, m) }
}
