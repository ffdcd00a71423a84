package vmath

import (
	"math"

	"ookami/internal/sve"
)

// Reciprocal and square root in the two styles the paper contrasts.
//
// The Cray and Fujitsu compilers lower 1/x and sqrt(x) to the FRECPE /
// FRSQRTE 8-bit estimates plus fused Newton steps, which pipeline across a
// vector. The GNU (and ARM-20) compilers instead emit the architectural
// FDIV/FSQRT instructions, which on A64FX block the FP pipe — 134 cycles of
// latency for a 512-bit FSQRT — producing the 20x sqrt gap in Figure 2 even
// though both compilers "fully vectorized" the loop.

// RecipNewton computes dst[i] = 1/src[i] via FRECPE + 3 Newton steps
// (8 -> 16 -> 32 -> 64 bits of precision). dst may be src, since element
// i reads only src[i].
//
//ookami:pure fills only the caller-owned dst
func RecipNewton(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, d := range src {
		dst[i] = recipLane(d)
	}
}

func recipLane(d float64) float64 {
	// Fix the IEEE edge cases the estimate path misses.
	if d == 0 || math.IsInf(d, 0) || math.IsNaN(d) {
		return 1 / d
	}
	x := sve.RecpeScalar(d)
	for step := 0; step < 3; step++ {
		x = float64(x * math.FMA(-d, x, 2))
	}
	return x
}

// RecipDiv computes dst[i] = 1/src[i] with the blocking FDIV instruction,
// batched over the whole slice.
func RecipDiv(dst, src []float64) {
	checkLen(dst, src)
	sve.RecipSlices(dst, src)
}

// SqrtNewton computes dst[i] = sqrt(src[i]) as x*rsqrt(x) with FRSQRTE +
// 3 Newton steps — the non-blocking algorithm Cray and Fujitsu select.
// dst may be src, since element i reads only src[i].
//
//ookami:pure fills only the caller-owned dst
func SqrtNewton(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, d := range src {
		dst[i] = sqrtLane(d)
	}
}

func sqrtLane(d float64) float64 {
	if d == 0 || math.IsInf(d, 1) || math.IsNaN(d) || d < 0 {
		return math.Sqrt(d)
	}
	x := sve.RsqrteScalar(d)
	for step := 0; step < 3; step++ {
		dx := float64(d * x)
		x = float64(x * float64(math.FMA(-dx, x, 3)*0.5))
	}
	s := float64(d * x) // sqrt(d) = d * rsqrt(d)
	// One final correction keeps the result within 1 ulp:
	// s' = s + 0.5*x*(d - s*s).
	e := math.FMA(-s, s, d)
	return math.FMA(float64(0.5*x), e, s)
}

// SqrtBlocking computes dst[i] = sqrt(src[i]) with the FSQRT instruction —
// bit-exact IEEE results, catastrophic throughput on A64FX — batched over
// the whole slice.
func SqrtBlocking(dst, src []float64) {
	checkLen(dst, src)
	sve.SqrtSlices(dst, src)
}
