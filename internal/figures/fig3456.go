package figures

import (
	"ookami/internal/explain"
	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/stats"
	"ookami/internal/toolchain"
)

// The NPB figures: single-core runtimes per compiler (Fig. 3), all-core
// runtimes with the fujitsu-first-touch variant (Fig. 4), and parallel
// efficiency curves on A64FX/GCC (Fig. 5) and Skylake/ICC (Fig. 6).
// All model class C, the class the paper runs.

// npbOrder is the application order the paper's figures use.
var npbOrder = []string{"BT", "CG", "EP", "LU", "SP", "UA"}

// NPBTime models the runtime of one NPB application (class C) with a
// toolchain on a machine at the given thread count, through
// explain.AppTime on engine-memoized loop cycles. Placement can be
// overridden to model the fujitsu-first-touch experiment.
func NPBTime(app npb.Benchmark, tc toolchain.Toolchain, m machine.Machine, threads int, firstTouch bool) float64 {
	if firstTouch {
		// The experiment moves the pages, not the compiled code.
		tc.Placement = perfmodel.FirstTouch
	}
	_, t := explain.AppTime(tc, m, app.Name(), app.Characterize(npb.ClassC), threads, engineCycles(tc, m))
	return t
}

// Fig3 regenerates Figure 3: single-core class C runtimes for the four
// A64FX compilers and Intel on Skylake.
func Fig3() *stats.Table {
	t := stats.NewTable("Fig. 3: NPB class C single-core runtime (s)",
		"app", "Fujitsu", "Cray", "ARM", "GNU", "Intel/SKX")
	for _, name := range npbOrder {
		app, _ := npb.ByName(name)
		var row []float64
		for _, tc := range toolchain.OnA64FX {
			row = append(row, NPBTime(app, tc, machine.A64FX, 1, false))
		}
		row = append(row, NPBTime(app, toolchain.Intel, machine.SkylakeGold6140, 1, false))
		t.AddNumericRow(name, row...)
	}
	return t
}

// Fig4 regenerates Figure 4: all-core runtimes (48 threads on A64FX, 36 on
// Skylake), including the fujitsu-first-touch variant the paper adds.
func Fig4() *stats.Table {
	t := stats.NewTable("Fig. 4: NPB class C all-core runtime (s)",
		"app", "Fujitsu", "fujitsu-first-touch", "Cray", "ARM", "GNU", "Intel/SKX")
	for _, name := range npbOrder {
		app, _ := npb.ByName(name)
		row := []float64{
			NPBTime(app, toolchain.Fujitsu, machine.A64FX, 48, false),
			NPBTime(app, toolchain.Fujitsu, machine.A64FX, 48, true),
			NPBTime(app, toolchain.Cray, machine.A64FX, 48, false),
			NPBTime(app, toolchain.Arm, machine.A64FX, 48, false),
			NPBTime(app, toolchain.GNU, machine.A64FX, 48, false),
			NPBTime(app, toolchain.Intel, machine.SkylakeGold6140, 36, false),
		}
		t.AddNumericRow(name, row...)
	}
	return t
}

// ScalingThreads are the thread counts of the efficiency curves.
var ScalingThreadsA64 = []int{1, 2, 4, 8, 12, 24, 48}
var ScalingThreadsSKX = []int{1, 2, 4, 8, 18, 36}

// Efficiencies returns the parallel-efficiency curve of one app on a
// machine with a toolchain.
func Efficiencies(app npb.Benchmark, tc toolchain.Toolchain, m machine.Machine, threads []int) []float64 {
	times := make([]float64, len(threads))
	for i, p := range threads {
		times[i] = NPBTime(app, tc, m, p, true)
	}
	return stats.Efficiency(threads, times)
}

// Fig5 regenerates Figure 5: parallel efficiency on A64FX with GCC.
func Fig5() *stats.Table {
	return scalingTable("Fig. 5: NPB parallel efficiency on A64FX (GNU)",
		toolchain.GNU, machine.A64FX, ScalingThreadsA64)
}

// Fig6 regenerates Figure 6: parallel efficiency on Skylake with ICC.
func Fig6() *stats.Table {
	return scalingTable("Fig. 6: NPB parallel efficiency on Skylake (Intel)",
		toolchain.Intel, machine.SkylakeGold6140, ScalingThreadsSKX)
}

func scalingTable(title string, tc toolchain.Toolchain, m machine.Machine, threads []int) *stats.Table {
	header := []string{"app"}
	for _, p := range threads {
		header = append(header, stats.Format3(float64(p)))
	}
	t := stats.NewTable(title, header...)
	for _, name := range npbOrder {
		app, _ := npb.ByName(name)
		t.AddNumericRow(name, Efficiencies(app, tc, m, threads)...)
	}
	return t
}
