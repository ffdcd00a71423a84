package vmath

import "math"

// Log computes dst[i] = ln(src[i]) vector-wise: log2 via the mantissa
// decomposition kernel, scaled by ln 2 with a compensated product to keep
// the error near 1 ulp.
//
//ookami:pure fills only the caller-owned dst
func Log(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = logLane(x)
	}
}

func logLane(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
	)
	l2 := log2Lane(x)
	// ln x = log2(x)*ln2, split product for accuracy.
	hi := float64(l2 * ln2Hi)
	return math.FMA(l2, ln2Lo, hi)
}

// LogSerial is the per-element libm path.
func LogSerial(dst, src []float64) {
	checkLen(dst, src)
	for i, x := range src {
		dst[i] = math.Log(x)
	}
}

// Exp2 computes dst[i] = 2^src[i] using the FEXPA scale path directly
// (no ln2 reduction needed: the argument is already in binary exponent
// units, which is exactly FEXPA's native domain).
func Exp2(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, t := range src {
		dst[i] = exp2Lane(t)
	}
}

// Cos computes dst[i] = cos(src[i]) by the sine kernel's quadrant
// machinery: cos(x) = sin(x + pi/2), realized by shifting the quadrant
// number rather than the (range-reduced) argument, so no accuracy is lost.
func Cos(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		n, r := sinReduce(x)
		dst[i] = sinQuadrant(x, n+1, r)
	}
}

// SinCos computes both sine and cosine of each element in one pass,
// sharing the range reduction — the form molecular-dynamics inner loops
// want.
func SinCos(sinDst, cosDst, src []float64) {
	checkLen(sinDst, src)
	checkLen(cosDst, src)
	sinDst, cosDst = sinDst[:len(src)], cosDst[:len(src)]
	for i, x := range src {
		n, r := sinReduce(x)
		sinDst[i] = sinQuadrant(x, n, r)
		cosDst[i] = sinQuadrant(x, n+1, r)
	}
}
