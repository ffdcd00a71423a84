// Package vmath is the vectorized math library the paper shows the
// ARM+SVE GNU toolchain is missing. It provides slice-oriented exp, sin,
// pow, reciprocal and square root built on the internal/sve instruction
// semantics, in the algorithmic variants the paper compares:
//
//   - the FEXPA-accelerated exponential of Section IV (Horner and Estrin
//     forms) with its 5-term polynomial;
//   - a "ported generic" exponential (13-term, no FEXPA) standing in for
//     math libraries ported from other platforms (ARM/Cray tiers);
//   - Newton-iteration reciprocal and square root from the 8-bit hardware
//     estimates (the Cray/Fujitsu choice) versus the blocking FSQRT/FDIV
//     instructions (the GNU/ARM-20 choice the paper criticizes);
//   - ULP measurement utilities used to verify the paper's ~6 ulp claim.
//
// Each kernel is a plain slice loop over one lane function, which runs
// the instruction sequence of one SVE vector iteration on a single
// element: math.FMA where the SVE code issues FMLA/FMLS, the sve
// package's scalar FEXPA, FRECPE and FRSQRTE, and float64(a*b) where
// the vector code rounds a product on its own, so no compiler may fuse
// it. The per-register composition (whilelt loop, predicated Fma, Sel,
// Store on 8-lane vectors) is kept in the package's tests as the
// reference, and the lane kernels are held to its bits.
package vmath

import "math"

// UlpDiff returns the distance in units-in-the-last-place between a and b,
// i.e. how many representable float64 values separate them. NaNs compare
// infinitely far from everything; equal values (including two NaNs) are 0.
func UlpDiff(a, b float64) float64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.Inf(1)
	}
	// Map the floats onto a monotone integer line (two's-complement trick).
	return math.Abs(float64(orderedBits(a) - orderedBits(b)))
}

func orderedBits(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// MaxUlp returns the largest ULP difference between corresponding elements
// of got and want. The slices must be the same length.
func MaxUlp(got, want []float64) float64 {
	if len(got) != len(want) {
		panic("vmath: MaxUlp length mismatch")
	}
	m := 0.0
	for i := range got {
		if d := UlpDiff(got[i], want[i]); d > m {
			m = d
		}
	}
	return m
}

// MeanUlp returns the average ULP difference between corresponding elements.
func MeanUlp(got, want []float64) float64 {
	if len(got) != len(want) {
		panic("vmath: MeanUlp length mismatch")
	}
	if len(got) == 0 {
		return 0
	}
	s := 0.0
	for i := range got {
		s += UlpDiff(got[i], want[i])
	}
	return s / float64(len(got))
}
