package vmath

import "math"

// horner evaluates the polynomial with the given coefficients (constant
// term first) at r using Horner's rule: c0 + r*(c1 + r*(c2 + ...)), one
// fused multiply-add per step. The chain is one long dependency, which is
// what makes it latency-bound on A64FX's 9-cycle FMA. coef must not be
// empty.
func horner(r float64, coef []float64) float64 {
	acc := coef[len(coef)-1]
	for i := len(coef) - 2; i >= 0; i-- {
		acc = math.FMA(acc, r, coef[i])
	}
	return acc
}

// estrin6 evaluates the same 6-term polynomial in Estrin form: pairs are
// combined with r, then pairs of pairs with r², exposing log-depth
// parallelism at the cost of extra multiplications — the trade the paper
// found "slightly faster" on A64FX. The pairing tree and FMA order are
// those of the general Estrin scheme for six terms.
func estrin6(r float64, c *[6]float64) float64 {
	r2 := float64(r * r)
	r4 := float64(r2 * r2)
	p01 := math.FMA(c[1], r, c[0])
	p23 := math.FMA(c[3], r, c[2])
	p45 := math.FMA(c[5], r, c[4])
	return math.FMA(p45, r4, math.FMA(p23, r2, p01))
}
