package figures

import (
	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/stats"
	"ookami/internal/toolchain"
)

// loopElements is the element count of the loop-suite runs (sized, as in
// the paper, so the working vectors collectively fill L1; the relative
// results are size-independent in the model).
const loopElements = 1 << 20

// RelativeRuntime computes the Figure 1/2 metric for one loop and
// toolchain: modeled A64FX runtime divided by the Intel-on-Skylake
// runtime. Each runtime is the engine's certified LoopCycles query
// scaled by the machine profile's SecondsFor, so repeated (toolchain,
// loop, machine) tuples — the Intel/Skylake denominator is shared by
// every row — come from the memo cache.
func RelativeRuntime(tc toolchain.Toolchain, l toolchain.Loop) float64 {
	a64, _ := perfmodel.ProfileFor(machine.A64FX.Name)
	skx, _ := perfmodel.ProfileFor(machine.SkylakeGold6140.Name)
	a := a64.SecondsFor(engine.LoopCycles(tc, l, machine.A64FX), loopElements)
	i := skx.SecondsFor(engine.LoopCycles(toolchain.Intel, l, machine.SkylakeGold6140), loopElements)
	return a / i
}

// loopTable renders the relative runtimes of a loop set.
func loopTable(title string, loops []toolchain.Loop) *stats.Table {
	t := stats.NewTable(title, "loop", "Fujitsu", "Cray", "ARM", "GNU")
	for _, l := range loops {
		var rel []float64
		for _, tc := range toolchain.OnA64FX {
			rel = append(rel, RelativeRuntime(tc, l))
		}
		t.AddNumericRow(l.String(), rel...)
	}
	return t
}

// Fig1 regenerates Figure 1: runtime on A64FX of the simple vector loops,
// relative to the Intel compiler on Skylake.
func Fig1() *stats.Table {
	return loopTable("Fig. 1: simple-loop runtime on A64FX relative to Intel/Skylake", toolchain.SimpleLoops)
}

// Fig2 regenerates Figure 2: the vectorized math-function loops.
func Fig2() *stats.Table {
	return loopTable("Fig. 2: math-function runtime on A64FX relative to Intel/Skylake", toolchain.MathLoops)
}
