package vmath

import (
	"math"

	"ookami/internal/sve"
)

// Section IV of the paper: exp(x) via the SVE FEXPA instruction.
//
// Write x = (m + i/64)·log2 + r with integer m, 0 <= i < 64 and
// |r| < log2/128. Then exp(x) = 2^(m+i/64) · exp(r); FEXPA produces
// 2^(m+i/64) directly from the 17-bit integer (m+1023)<<6 | i, and the
// narrow range of r lets a 5-term series reach double precision where the
// classical |r| < log2/2 reduction needs 13 terms.

const (
	invLn2x64 = 64 / math.Ln2 // 64/log 2
	// Cody–Waite split of log2/64, derived from the classical glibc split
	// of log2 (hi has trailing zero bits, so n*hi is exact for |n| < 2^17).
	// Dividing both halves by 64 is exact (power of two).
	ln2by64Hi = 6.93147180369123816490e-01 / 64
	ln2by64Lo = 1.90821492927058770002e-10 / 64
	// shift moves the rounded quotient into the low mantissa bits
	// (the standard 1.5*2^52 trick) and pre-biases it so the float's low
	// 17 bits are exactly (m+1023)<<6 | i, ready for FEXPA.
	expShift = 1.5*(1<<52) + 1023*64
	// expMax/expMin bound the arguments for which the kernel is exact;
	// outside, results saturate to +Inf / 0 via a predicated fixup.
	expMax = 709.7827128933840
	expMin = -708.3964185322641
)

// expPoly5 holds the 5-term Taylor coefficients of exp(r) beyond the
// constant: exp(r) = 1 + r + r²/2 + r³/6 + r⁴/24 + r⁵/120. With
// |r| < log2/128 the truncation error is below 2^-54.
var expPoly5 = [...]float64{1, 1, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120}

// expPoly13 holds the 13-term series used by the "ported generic"
// implementation that reduces only to |r| < log2/2 (no FEXPA).
var expPoly13 = func() (c [14]float64) {
	f := 1.0
	for i := range c {
		if i > 0 {
			f *= float64(i)
		}
		c[i] = 1 / f
	}
	return c
}()

// fexpaScale builds the FEXPA scale for one lane from the shifted
// quotient z and applies the top-of-range fix the paper alludes to
// ("additional mask manipulation is necessary" near the edges): when the
// biased exponent field would saturate at 2047 (x in the last
// log2/64-wide window below log(MaxFloat64), where m = 1024), the operand
// is reduced by one octave (subtract 64) and the caller doubles the
// result — both steps exact, keeping the kernel correct all the way to
// the true overflow threshold. Returns 2^(m+i/64) (or half of it) and
// whether to double.
func fexpaScale(z float64) (scale float64, double bool) {
	bits := math.Float64bits(z)
	if bits>>6&0x7FF == 0x7FF {
		bits -= 64
		double = true
	}
	return sve.FexpaScalar(bits), double
}

// PolyForm selects how the exp kernel evaluates its polynomial.
type PolyForm int

const (
	// Horner is the minimal-multiplication, maximal-dependency form.
	Horner PolyForm = iota
	// Estrin exposes instruction-level parallelism with extra multiplies;
	// the paper measured it slightly faster on A64FX.
	Estrin
)

// expLane computes exp for one lane with FEXPA: the instruction sequence
// of one SVE vector iteration, applied to a single element.
func expLane(x float64, form PolyForm) float64 {
	// z = x/ (ln2/64) + shift; its low 17 bits are the FEXPA operand and
	// z - shift is the rounded quotient n = 64m + i as a float.
	z := math.FMA(x, invLn2x64, expShift)
	scale, double := fexpaScale(z)
	n := z - expShift
	// r = x - n*ln2/64 in two steps (Cody–Waite).
	r := math.FMA(-n, ln2by64Hi, x)
	r = math.FMA(-n, ln2by64Lo, r)
	var poly float64
	if form == Estrin {
		poly = estrin6(r, &expPoly5)
	} else {
		poly = horner(r, expPoly5[:])
	}
	res := float64(scale * poly)
	if double {
		res += res
	}
	return expFixup(x, res)
}

// expFixup applies the out-of-range fixup (the "additional mask
// manipulation" the paper notes a production implementation needs):
// saturate above expMax and below expMin, propagate NaN.
func expFixup(x, res float64) float64 {
	switch {
	case x > expMax:
		return math.Inf(1)
	case x < expMin:
		return 0
	case math.IsNaN(x):
		return math.NaN()
	}
	return res
}

// Exp computes dst[i] = exp(src[i]) with the FEXPA kernel in the given
// polynomial form. dst and src must be equal length; dst may be src,
// since element i reads only src[i].
//
//ookami:pure fills only the caller-owned dst
func Exp(dst, src []float64, form PolyForm) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = expLane(x, form)
	}
}

// ExpPortedGeneric is the classical table-free algorithm the non-Fujitsu
// libraries port from other platforms: reduce to |r| < log2/2, evaluate a
// 13-term series, scale by 2^m through exponent arithmetic. It ignores
// FEXPA entirely — the paper's hypothesis for the ARM/Cray performance gap.
func ExpPortedGeneric(dst, src []float64) {
	checkLen(dst, src)
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = expPortedLane(x)
	}
}

func expPortedLane(x float64) float64 {
	const invLn2 = 1 / math.Ln2
	const ln2Hi = 6.93147180369123816490e-01
	const ln2Lo = 1.90821492927058770002e-10
	const shift = 1.5 * (1 << 52)
	z := math.FMA(x, invLn2, shift)
	n := z - shift
	r := math.FMA(-n, ln2Hi, x)
	r = math.FMA(-n, ln2Lo, r)
	// Scale by 2^m: build the power of two from the exponent field.
	return expFixup(x, float64(horner(r, expPoly13[:])*twoPow(int64(n))))
}

// twoPow returns 2^m by exponent-field construction for the range the
// ported kernel needs.
func twoPow(m int64) float64 {
	if m < -1022 {
		// Subnormal result: scale in two exact steps.
		return math.Float64frombits(uint64(m+1022+1023)<<52) * 0x1p-1022
	}
	if m > 1023 {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(m+1023) << 52)
}

// ExpSerial is the serial reference path: one libm call per element,
// standing in for the GNU toolchain's unvectorized glibc exp on ARM+SVE
// (~32 cycles per evaluation in the paper's measurement).
func ExpSerial(dst, src []float64) {
	checkLen(dst, src)
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

func checkLen(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vmath: dst/src length mismatch")
	}
}
