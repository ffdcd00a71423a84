package figures

import (
	"math/rand"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/stats"
	"ookami/internal/toolchain"
	"ookami/internal/vmath"
)

// The Section IV exponential study: the library ladder in cycles per
// evaluation, the cycle cost of our own FEXPA kernel in its three loop
// structures, the Horner/Estrin comparison, and the measured ULP accuracy
// of the actual implementation in internal/vmath.

// ExpLadder returns cycles/element of exp for the four A64FX toolchains
// plus Intel on Skylake (the paper: GNU ~32, ARM 6, Cray 4.2, Fujitsu 2.1,
// Intel 1.6).
func ExpLadder() map[string]float64 {
	out := make(map[string]float64, 5)
	for _, tc := range toolchain.OnA64FX {
		out[tc.Name] = engine.LoopCycles(tc, toolchain.LoopExp, machine.A64FX)
	}
	out[toolchain.Intel.Name] = engine.LoopCycles(toolchain.Intel, toolchain.LoopExp, machine.SkylakeGold6140)
	return out
}

// KernelStructure identifies the loop structure of our own FEXPA kernel.
type KernelStructure int

const (
	// VLAStructure is the whilelt-governed vector-length-agnostic loop.
	VLAStructure KernelStructure = iota
	// FixedStructure uses an all-true predicate with a scalar tail.
	FixedStructure
	// UnrolledStructure processes two vectors per iteration.
	UnrolledStructure
)

// String names the structure.
func (k KernelStructure) String() string {
	return [...]string{"VLA", "fixed-width", "unrolled x2"}[k]
}

// KernelCycles schedules our FEXPA kernel on the A64FX profile for a loop
// structure and polynomial form, returning cycles per element — the
// paper's 2.2 / 2.0 / 1.9 ladder.
func KernelCycles(ks KernelStructure, form toolchain.PolyShape) float64 {
	a64, _ := perfmodel.ProfileFor(machine.A64FX.Name)
	kernel := toolchain.ExpFexpaKernel(form)
	ctrl := func(vla bool) perfmodel.Body {
		b := perfmodel.Body{perfmodel.I(perfmodel.INT), perfmodel.I(perfmodel.INT)}
		if vla {
			b = append(b, perfmodel.I(perfmodel.PRED))
		}
		return append(b, perfmodel.I(perfmodel.BRANCH))
	}
	switch ks {
	case VLAStructure:
		body := append(append(perfmodel.Body{}, kernel...), ctrl(true)...)
		return a64.CyclesPerElement(body, 8)
	case FixedStructure:
		body := append(append(perfmodel.Body{}, kernel...), ctrl(false)...)
		return a64.CyclesPerElement(body, 8)
	default:
		body := kernel.Repeat(2, ctrl(false)...)
		return a64.CyclesPerElement(body, 16)
	}
}

// expStudySamples is the sample count of the study's accuracy row.
const expStudySamples = 200000

// ulpBlock is how many samples of the accuracy row are held at a time.
const ulpBlock = 1024

// eachUlpBlock draws the seeded sample of the permissible input range
// (-700, 700) that MeasuredUlp evaluates and hands it to fn in order, in
// blocks of at most ulpBlock inputs. The block is reused between calls.
func eachUlpBlock(samples int, fn func(xs []float64)) {
	rng := rand.New(rand.NewSource(271828))
	var buf [ulpBlock]float64
	for done := 0; done < samples; done += ulpBlock {
		xs := buf[:min(ulpBlock, samples-done)]
		for i := range xs {
			xs[i] = rng.Float64()*1400 - 700
		}
		fn(xs)
	}
}

// MeasuredUlp runs the real vmath FEXPA kernel over the permissible input
// range and returns its maximum ULP error (the paper: "about 6 ulp").
func MeasuredUlp(form vmath.PolyForm, samples int) float64 {
	var got, want [ulpBlock]float64
	worst := 0.0
	eachUlpBlock(samples, func(xs []float64) {
		g, w := got[:len(xs)], want[:len(xs)]
		vmath.Exp(g, xs, form)
		vmath.ExpSerial(w, xs)
		worst = max(worst, vmath.MaxUlp(g, w))
	})
	return worst
}

// ExpStudy renders the full Section IV table.
func ExpStudy() *stats.Table {
	t := stats.NewTable("Sec. IV: the exponential function on A64FX", "implementation", "cycles/element", "notes")
	ladder := ExpLadder()
	t.AddRow("GNU (serial glibc)", stats.Format3(ladder["GNU"]), "no vector math library")
	t.AddRow("ARM 21 (vector lib)", stats.Format3(ladder["ARM"]), "ported generic kernel")
	t.AddRow("Cray (vector lib)", stats.Format3(ladder["Cray"]), "ported generic kernel")
	t.AddRow("Fujitsu (vector lib)", stats.Format3(ladder["Fujitsu"]), "FEXPA kernel")
	t.AddRow("Intel on Skylake", stats.Format3(ladder["Intel"]), "SVML")
	for _, ks := range []KernelStructure{VLAStructure, FixedStructure, UnrolledStructure} {
		t.AddRow("this work, "+ks.String(), stats.Format3(KernelCycles(ks, toolchain.Horner)), "FEXPA + 5-term Horner")
	}
	t.AddRow("this work, unrolled Estrin", stats.Format3(KernelCycles(UnrolledStructure, toolchain.Estrin)),
		"Estrin form, slightly faster")
	t.AddRow("measured accuracy", stats.Format3(MeasuredUlp(vmath.Horner, expStudySamples)), "max ulp over (-700,700)")
	return t
}
