package vmath

import "math"

// Vectorized sine with the classical Payne–Hanek-lite reduction: quadrant
// n = round(x*2/pi), r = x - n*pi/2 via a two-part Cody–Waite split, then
// the fdlibm minimax kernels for sin/cos on |r| <= pi/4, combined per lane
// by quadrant with predicates — exactly how a vector math library
// implements sin without divergent branches. Accurate to a few ulp for
// |x| <= ~1e5 (the reduction is not the full Payne–Hanek).

const (
	twoOverPi = 2 / math.Pi
	pio2Hi    = 1.57079632673412561417e+00 // 33 high bits of pi/2
	pio2Lo    = 6.07710050650619224932e-11 // pi/2 - pio2Hi (double)
	sinShift  = 1.5 * (1 << 52)
)

var sinPoly = [...]float64{
	1,
	-1.66666666666666324348e-01,
	8.33333333332248946124e-03,
	-1.98412698298579493134e-04,
	2.75573137070700676789e-06,
	-2.50507602534068634195e-08,
	1.58969099521155010221e-10,
}

var cosPoly = [...]float64{
	1,
	-0.5,
	4.16666666666666019037e-02,
	-1.38888888888741095749e-03,
	2.48015872894767294178e-05,
	-2.75573143513906633035e-07,
	2.08757232129817482790e-09,
	-1.13596475577881948265e-11,
}

// Sin computes dst[i] = sin(src[i]) vector-wise.
//
//ookami:pure fills only the caller-owned dst
func Sin(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		n, r := sinReduce(x)
		dst[i] = sinQuadrant(x, n, r)
	}
}

// sinReduce returns the quadrant n = round(x * 2/pi), found with the
// shift trick, and r = x - n*pi/2 in two Cody–Waite steps.
func sinReduce(x float64) (n int64, r float64) {
	z := math.FMA(x, twoOverPi, sinShift)
	nf := z - sinShift
	r = math.FMA(-nf, pio2Hi, x)
	r = math.FMA(-nf, pio2Lo, r)
	return int64(nf), r
}

// sinQuadrant returns sin(r + q*pi/2) for the reduced argument r of x:
// sin(r) = r * P(r^2) or cos(r) = Q(r^2), signed by quadrant — the
// per-lane selection a vector library does with predicates. Non-finite x
// gives NaN.
func sinQuadrant(x float64, q int64, r float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.NaN()
	}
	r2 := float64(r * r)
	switch q & 3 {
	case 0:
		return float64(r * horner(r2, sinPoly[:]))
	case 1:
		return horner(r2, cosPoly[:])
	case 2:
		return -float64(r * horner(r2, sinPoly[:]))
	default:
		return -horner(r2, cosPoly[:])
	}
}

// SinSerial is the per-element libm path (the GNU toolchain's only option
// on ARM+SVE).
func SinSerial(dst, src []float64) {
	checkLen(dst, src)
	for i, x := range src {
		dst[i] = math.Sin(x)
	}
}
