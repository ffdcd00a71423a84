package vmath

import (
	"math"

	"ookami/internal/sve"
)

// Vectorized log2 and pow. pow(x,y) = 2^(y*log2 x): log2 by mantissa
// decomposition and an atanh series, 2^t through the FEXPA scale path.
// Relative accuracy is ~1e-12 scaled by |y| — the single-double log the
// vector libraries in the paper's Figure 2 use (the correctly rounded
// serial pow is far slower, which is the point of the comparison).

var log2Poly = func() (c [7]float64) {
	// log(m) = 2*atanh(s), s=(m-1)/(m+1): 2*(s + s^3/3 + ... + s^13/13),
	// converted to log2 by 1/ln2. Coefficients on s^2 with overall factor
	// handled in the kernel: c[k] = 2/(ln2*(2k+1)).
	for k := range c {
		c[k] = 2 / (math.Ln2 * float64(2*k+1))
	}
	return c
}()

// Log2 computes dst[i] = log2(src[i]) for positive finite inputs;
// non-positive and non-finite lanes get the IEEE results (-Inf, NaN, +Inf).
func Log2(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = log2Lane(x)
	}
}

func log2Lane(x float64) float64 {
	switch {
	case x == 0:
		return math.Inf(-1)
	case x < 0 || math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return math.Inf(1)
	}
	// Decompose x = 2^k * m with m in [sqrt(1/2), sqrt(2)).
	m, e := math.Frexp(x) // m in [0.5, 1)
	if m < math.Sqrt2/2 {
		m *= 2
		e--
	}
	// s = (m-1)/(m+1), computed with a Newton reciprocal (no FDIV).
	num := m - 1
	den := m + 1
	inv := sve.RecpeScalar(den)
	for step := 0; step < 3; step++ {
		inv = float64(inv * math.FMA(-den, inv, 2))
	}
	s := float64(num * inv)
	s2 := float64(s * s)
	return math.FMA(s, horner(s2, log2Poly[:]), float64(e)) // k + s*poly
}

// Pow computes dst[i] = xs[i]^ys[i] lane-wise for positive bases using
// 2^(y*log2 x) with the FEXPA scale path. dst may be xs or ys, since
// element i reads only xs[i] and ys[i].
//
//ookami:pure fills only the caller-owned dst
func Pow(dst, xs, ys []float64) {
	checkLen(dst, xs)
	checkLen(dst, ys)
	dst, ys = dst[:len(xs)], ys[:len(xs)]
	for i, x := range xs {
		dst[i] = powLane(x, ys[i])
	}
}

func powLane(x, y float64) float64 {
	// IEEE corner cases the fast path cannot represent: defer to libm.
	if math.IsNaN(x) || math.IsNaN(y) || x < 0 ||
		x == 0 || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return math.Pow(x, y)
	}
	return exp2Lane(float64(y * log2Lane(x))) // 2^(y*log2(x))
}

// exp2Lane computes 2^t via FEXPA: n = round(64 t), r = (t - n/64)*ln2,
// 5-term series, scale by FEXPA(n + bias<<6). Saturation fixups against t
// are included.
func exp2Lane(t float64) float64 {
	switch {
	case math.IsNaN(t):
		return math.NaN()
	case t >= 1023.98: // FEXPA's biased exponent saturates at 2046
		return math.Inf(1)
	case t <= -1021: // subnormal range: flush to zero
		return 0
	}
	z := math.FMA(t, 64, expShift)
	scale, double := fexpaScale(z)
	n := z - expShift
	// r = (t - n/64) * ln2; t - n/64 is exact (n/64 has the same spacing).
	r := math.FMA(-n, 1.0/64, t)
	r = float64(r * math.Ln2)
	res := float64(scale * horner(r, expPoly5[:]))
	if double {
		res += res
	}
	return res
}

// PowSerial is the per-element libm path.
func PowSerial(dst, xs, ys []float64) {
	checkLen(dst, xs)
	checkLen(dst, ys)
	for i := range xs {
		dst[i] = math.Pow(xs[i], ys[i])
	}
}
