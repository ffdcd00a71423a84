package figures

import (
	"fmt"
	"math/rand"

	"ookami/internal/loops"
	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/stats"
	"ookami/internal/toolchain"
)

// Ablations: studies beyond the paper's figures that isolate the design
// choices DESIGN.md calls out — the out-of-order window behind the
// Section IV cycle counts, the unroll factor, the Newton-vs-blocking
// sqrt decision, the 128-byte gather window, and the CMG placement
// policy as a function of thread count.

// WindowAblation sweeps the modeled reorder-window size and reports the
// FEXPA exp kernel's cycles/element. It shows why the A64FX (small
// window, 9-cycle FMA) sits near 2.2 c/el while a Skylake-class window
// would reach the throughput bound.
func WindowAblation() *stats.Table {
	t := stats.NewTable("Ablation: exp kernel vs out-of-order window size (A64FX pipes/latencies)",
		"window", "cycles/element (Horner)", "cycles/element (Estrin)")
	kernelH := toolchain.ExpFexpaKernel(toolchain.Horner)
	kernelE := toolchain.ExpFexpaKernel(toolchain.Estrin)
	ctrl := perfmodel.Body{
		perfmodel.I(perfmodel.INT), perfmodel.I(perfmodel.INT), perfmodel.I(perfmodel.BRANCH),
	}
	for _, w := range []int{16, 32, 48, 64, 96, 128, 192, 256} {
		prof := perfmodel.A64FXProfile
		prof.Window = w
		bh := append(append(perfmodel.Body{}, kernelH...), ctrl...)
		be := append(append(perfmodel.Body{}, kernelE...), ctrl...)
		t.AddNumericRow(fmt.Sprintf("%d", w),
			prof.CyclesPerElement(bh, 8), prof.CyclesPerElement(be, 8))
	}
	return t
}

// UnrollAblation sweeps the unroll factor of the exp kernel on the stock
// A64FX profile: the gains saturate once the loop-control overhead is
// amortized and the window fills.
func UnrollAblation() *stats.Table {
	t := stats.NewTable("Ablation: exp kernel vs unroll factor (A64FX)",
		"unroll", "cycles/element")
	prof := perfmodel.A64FXProfile
	kernel := toolchain.ExpFexpaKernel(toolchain.Horner)
	ctrl := perfmodel.Body{
		perfmodel.I(perfmodel.INT), perfmodel.I(perfmodel.INT), perfmodel.I(perfmodel.BRANCH),
	}
	for _, u := range []int{1, 2, 3, 4, 6, 8} {
		body := append(kernel.Repeat(u), ctrl...)
		t.AddNumericRow(fmt.Sprintf("%d", u), prof.CyclesPerElement(body, 8*u))
	}
	return t
}

// SqrtStrategyAblation compares the blocking-FSQRT and Newton-iteration
// square roots on both modeled machines — the decision behind Figure 2's
// 20x gap. It quantifies why the same instruction choice is nearly
// harmless on Skylake and catastrophic on A64FX. The three toolchain
// loops are Fig. 2's own (toolchain, loop, machine) queries, so they come
// from the engine's memo; only the Newton-on-Skylake variant, which no
// shipped toolchain emits, is compiled here.
func SqrtStrategyAblation() *stats.Table {
	t := stats.NewTable("Ablation: sqrt strategy, cycles/element",
		"machine", "blocking FSQRT", "Newton (FRSQRTE+3 steps)", "penalty")
	// Blocking: GNU emits FSQRT; Newton: Fujitsu emits FRSQRTE + steps.
	blocking := engine.LoopCycles(toolchain.GNU, toolchain.LoopSqrt, machine.A64FX)
	newtonA64 := engine.LoopCycles(toolchain.Fujitsu, toolchain.LoopSqrt, machine.A64FX)
	t.AddRow("A64FX", stats.Format3(blocking), stats.Format3(newtonA64), stats.Format3(blocking/newtonA64)+"x")
	intel := engine.LoopCycles(toolchain.Intel, toolchain.LoopSqrt, machine.SkylakeGold6140)
	skx, _ := perfmodel.ProfileFor(machine.SkylakeGold6140.Name)
	newton := toolchain.Toolchain{
		Name: "Intel", Version: "x", ForISA: machine.AVX512,
		Style: toolchain.Fixed, Unroll: 4, Math: toolchain.TierSVML,
		NewtonSqrt: true, NewtonRecip: true,
	}.Compile(toolchain.LoopSqrt, machine.SkylakeGold6140).CyclesPerElement(skx)
	t.AddRow("Skylake", stats.Format3(intel), stats.Format3(newton), stats.Format3(intel/newton)+"x")
	return t
}

// GatherWindowAblation measures (functionally, on the SVE emulation) how
// the A64FX memory-request count varies with the permutation window: the
// 128-byte pairing saturates at 2x once the window fits 16 doubles.
func GatherWindowAblation() *stats.Table {
	t := stats.NewTable("Ablation: gather requests vs permutation window (measured on the emulation)",
		"window (doubles)", "requests / vector", "speedup vs full permutation")
	const n = 1 << 14
	rng := rand.New(rand.NewSource(99))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	w := loops.NewWorkload(n, 99)
	full := loops.GatherSVE(y, x, w.Index)
	vectors := float64(n / 8)
	for _, win := range []int{2, 4, 8, 16, 32, 64, n} {
		var idx []int64
		if win >= n {
			idx = w.Index
		} else {
			idx = windowPerm(rng, n, win)
		}
		req := loops.GatherSVE(y, x, idx)
		t.AddRow(fmt.Sprintf("%d", win),
			stats.Format3(float64(req)/vectors),
			stats.Format3(float64(full)/float64(req)))
	}
	return t
}

func windowPerm(rng *rand.Rand, n, window int) []int64 {
	p := make([]int64, n)
	for base := 0; base < n; base += window {
		end := base + window
		if end > n {
			end = n
		}
		for i, v := range rng.Perm(end - base) {
			p[base+i] = int64(base + v)
		}
	}
	return p
}

// PlacementSweep models SP's runtime versus thread count under the two
// placement policies: the CMG-0 penalty is invisible below 12 threads
// (everything runs on CMG 0 anyway) and grows to ~3x at 48.
func PlacementSweep() *stats.Table {
	t := stats.NewTable("Ablation: SP (class C) vs threads under placement policies (s)",
		"threads", "first-touch", "CMG 0", "penalty")
	sp, _ := npb.ByName("SP")
	for _, p := range []int{1, 6, 12, 24, 48} {
		ft := NPBTime(sp, toolchain.Fujitsu, machine.A64FX, p, true)
		c0 := NPBTime(sp, toolchain.Fujitsu, machine.A64FX, p, false)
		t.AddRow(fmt.Sprintf("%d", p), stats.Format3(ft), stats.Format3(c0),
			stats.Format3(c0/ft)+"x")
	}
	return t
}

// ChainLatencyAblation sweeps the modeled FMA latency and reports SP's
// single-core *compute* time (memory terms removed, so the roofline max
// cannot hide the effect): the dependence-chain term that separates the
// A64FX's 9-cycle FMA from Skylake's 4.
func ChainLatencyAblation() *stats.Table {
	t := stats.NewTable("Ablation: SP single-core compute time vs FMA latency (A64FX otherwise)",
		"FMA latency (cycles)", "modeled compute time (s)")
	sp, _ := npb.ByName("SP")
	st := sp.Characterize(npb.ClassC)
	for _, lat := range []int{4, 6, 9, 12} {
		// Scale the chain term proportionally to the latency (the model
		// prices chains at latency/4.5 cycles per flop) and isolate
		// compute by zeroing the traffic.
		mod := st
		mod.ChainFrac = st.ChainFrac * float64(lat) / 9.0
		mod.StreamBytes, mod.StridedBytes, mod.RandomBytes = 1, 1, 1
		exec := ExecFor(toolchain.Fujitsu, machine.A64FX, st.VecFrac)
		t.AddNumericRow(fmt.Sprintf("%d", lat),
			perfmodel.NodeTime(machine.A64FX, mod.AppProfile("SP"), exec, 1))
	}
	return t
}

// GNUFriendlyKernels contrasts the Figure 2 math loops with a pure
// multiply-add stencil: on the stencil, every toolchain — GNU included —
// lands within codegen noise, the paper's "fortunately includes most
// linear algebra, finite-difference stencils, and FFT" escape hatch.
func GNUFriendlyKernels() *stats.Table {
	t := stats.NewTable("Extra: stencil vs exp, runtime relative to Intel/Skylake",
		"toolchain", "stencil (mul/add only)", "exp (needs vector libm)")
	for _, tc := range toolchain.OnA64FX {
		t.AddNumericRow(tc.Name,
			RelativeRuntime(tc, toolchain.LoopStencil),
			RelativeRuntime(tc, toolchain.LoopExp))
	}
	return t
}

// Extras lists the ablation artifacts (not part of the paper; regenerable
// with `ookami-figures -extras`).
func Extras() []Item {
	return []Item{
		{"abl-window", "Exp kernel vs OoO window size", WindowAblation},
		{"abl-unroll", "Exp kernel vs unroll factor", UnrollAblation},
		{"abl-sqrt", "Sqrt strategy: blocking vs Newton", SqrtStrategyAblation},
		{"abl-gatherwin", "Gather requests vs permutation window", GatherWindowAblation},
		{"abl-placement", "CMG placement penalty vs thread count", PlacementSweep},
		{"abl-chainlat", "Dependence chains vs FMA latency", ChainLatencyAblation},
		{"mc-story", "The Section III Monte-Carlo GPU story", MCStory},
		{"abl-cacheline", "Cache-line traffic amplification (simulated)", CacheLineAblation},
		{"gnu-friendly", "Stencil vs exp: where GNU is competitive", GNUFriendlyKernels},
	}
}
