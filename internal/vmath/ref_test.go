package vmath

import (
	"math"

	"ookami/internal/sve"
)

// The register reference: every kernel as a composition of the
// per-register internal/sve operations (Load, Fma, Sel, Store on one
// 8-lane vector under a whilelt predicate), the way the SVE code is
// written. The package's lane kernels run the same instruction sequence
// one element at a time; lanes_test.go holds them to these bits.

// PolyHorner evaluates the polynomial with the given coefficients
// (constant term first) at each lane of r using Horner's rule:
// c0 + r*(c1 + r*(c2 + ...)).
func PolyHorner(p sve.Pred, r sve.F64, coef []float64) sve.F64 {
	if len(coef) == 0 {
		return sve.F64{}
	}
	acc := sve.Dup(coef[len(coef)-1])
	for i := len(coef) - 2; i >= 0; i-- {
		acc = sve.Fma(p, sve.Dup(coef[i]), acc, r)
	}
	return acc
}

// PolyEstrin evaluates the same polynomial in Estrin form: pairs are
// combined with r, then pairs of pairs with r², and so on.
func PolyEstrin(p sve.Pred, r sve.F64, coef []float64) sve.F64 {
	n := len(coef)
	if n == 0 {
		return sve.F64{}
	}
	var scratch [16]sve.F64
	var level []sve.F64
	if n <= len(scratch) {
		level = scratch[:n]
	} else {
		level = make([]sve.F64, n)
	}
	for i, c := range coef {
		level[i] = sve.Dup(c)
	}
	x := r
	for len(level) > 1 {
		m := 0
		for i := 0; i+1 < len(level); i += 2 {
			// level[i] + x*level[i+1], written back in place.
			level[m] = sve.Fma(p, level[i], level[i+1], x)
			m++
		}
		if len(level)%2 == 1 {
			level[m] = level[len(level)-1]
			m++
		}
		level = level[:m]
		x = sve.Mul(p, x, x)
	}
	return level[0]
}

// fexpaOperand extracts the FEXPA operand bits from the shifted quotient
// z, reduced by one octave where the biased exponent would saturate;
// returns the operand vector and the lanes to double.
func fexpaOperand(p sve.Pred, z sve.F64) (sve.U64, sve.Pred) {
	var u sve.U64
	var double sve.Pred
	for l := range u {
		if !p[l] {
			continue
		}
		bits := math.Float64bits(z[l])
		if bits>>6&0x7FF == 0x7FF {
			bits -= 64
			double[l] = true
		}
		u[l] = bits
	}
	return u, double
}

// unary runs a one-vector kernel over src in the canonical SVE
// vector-length-agnostic loop (whilelt-governed, predicated tail).
func unary(dst, src []float64, vec func(sve.Pred, sve.F64) sve.F64) {
	checkLen(dst, src)
	for base := 0; base < len(src); base += sve.VL {
		p := sve.WhileLT(base, len(src))
		x := sve.Load(src, base, p)
		sve.Store(dst, base, p, vec(p, x))
	}
}

func expVec(p sve.Pred, x sve.F64, form PolyForm) sve.F64 {
	z := sve.Fma(p, sve.Dup(expShift), x, sve.Dup(invLn2x64))
	u, double := fexpaOperand(p, z)
	scale := sve.Fexpa(p, u)
	n := sve.Sub(p, z, sve.Dup(expShift))
	r := sve.Fms(p, x, n, sve.Dup(ln2by64Hi))
	r = sve.Fms(p, r, n, sve.Dup(ln2by64Lo))
	var poly sve.F64
	if form == Estrin {
		poly = PolyEstrin(p, r, expPoly5[:])
	} else {
		poly = PolyHorner(p, r, expPoly5[:])
	}
	res := sve.Mul(p, scale, poly)
	res = sve.Sel(double, sve.Add(p, res, res), res)
	over := sve.CmpGT(p, x, sve.Dup(expMax))
	under := sve.CmpLT(p, x, sve.Dup(expMin))
	res = sve.Sel(over, sve.Dup(math.Inf(1)), res)
	res = sve.Sel(under, sve.Dup(0), res)
	for l := range res {
		if p[l] && math.IsNaN(x[l]) {
			res[l] = math.NaN()
		}
	}
	return res
}

func regExp(dst, src []float64, form PolyForm) {
	unary(dst, src, func(p sve.Pred, x sve.F64) sve.F64 { return expVec(p, x, form) })
}

func expCorrectedVec(p sve.Pred, x sve.F64) sve.F64 {
	z := sve.Fma(p, sve.Dup(expShift), x, sve.Dup(invLn2x64))
	u, double := fexpaOperand(p, z)
	scale := sve.Fexpa(p, u)
	n := sve.Sub(p, z, sve.Dup(expShift))
	r := sve.Fms(p, x, n, sve.Dup(ln2by64Hi))
	r = sve.Fms(p, r, n, sve.Dup(ln2by64Lo))
	q := PolyHorner(p, r, expPoly5[1:])
	q = sve.Mul(p, q, r)
	res := sve.Fma(p, scale, scale, q)
	res = sve.Sel(double, sve.Add(p, res, res), res)
	over := sve.CmpGT(p, x, sve.Dup(expMax))
	under := sve.CmpLT(p, x, sve.Dup(expMin))
	res = sve.Sel(over, sve.Dup(math.Inf(1)), res)
	res = sve.Sel(under, sve.Dup(0), res)
	for l := range res {
		if p[l] && math.IsNaN(x[l]) {
			res[l] = math.NaN()
		}
	}
	return res
}

func regExpCorrected(dst, src []float64) { unary(dst, src, expCorrectedVec) }

func regExpPortedGeneric(dst, src []float64) {
	unary(dst, src, func(p sve.Pred, x sve.F64) sve.F64 {
		const invLn2 = 1 / math.Ln2
		const ln2Hi = 6.93147180369123816490e-01
		const ln2Lo = 1.90821492927058770002e-10
		const shift = 1.5 * (1 << 52)
		z := sve.Fma(p, sve.Dup(shift), x, sve.Dup(invLn2))
		n := sve.Sub(p, z, sve.Dup(shift))
		r := sve.Fms(p, x, n, sve.Dup(ln2Hi))
		r = sve.Fms(p, r, n, sve.Dup(ln2Lo))
		poly := PolyHorner(p, r, expPoly13[:])
		var res sve.F64
		for l := range res {
			if !p[l] {
				continue
			}
			m := int64(n[l])
			switch {
			case x[l] > expMax:
				res[l] = math.Inf(1)
			case x[l] < expMin:
				res[l] = 0
			case math.IsNaN(x[l]):
				res[l] = math.NaN()
			default:
				res[l] = poly[l] * twoPow(m)
			}
		}
		return res
	})
}

func log2Vec(p sve.Pred, x sve.F64) sve.F64 {
	var m, k sve.F64
	for l := range x {
		if !p[l] {
			continue
		}
		fr, e := math.Frexp(x[l])
		if fr < math.Sqrt2/2 {
			fr *= 2
			e--
		}
		m[l] = fr
		k[l] = float64(e)
	}
	num := sve.Sub(p, m, sve.Dup(1))
	den := sve.Add(p, m, sve.Dup(1))
	inv := sve.Recpe(p, den)
	for step := 0; step < 3; step++ {
		inv = sve.Mul(p, inv, sve.Recps(p, den, inv))
	}
	s := sve.Mul(p, num, inv)
	s2 := sve.Mul(p, s, s)
	poly := PolyHorner(p, s2, log2Poly[:])
	res := sve.Fma(p, k, s, poly)
	for l := range res {
		if !p[l] {
			continue
		}
		switch {
		case x[l] == 0:
			res[l] = math.Inf(-1)
		case x[l] < 0 || math.IsNaN(x[l]):
			res[l] = math.NaN()
		case math.IsInf(x[l], 1):
			res[l] = math.Inf(1)
		}
	}
	return res
}

func regLog2(dst, src []float64) { unary(dst, src, log2Vec) }

func regLog(dst, src []float64) {
	const (
		ln2Hi = 6.93147180369123816490e-01
		ln2Lo = 1.90821492927058770002e-10
	)
	unary(dst, src, func(p sve.Pred, x sve.F64) sve.F64 {
		l2 := log2Vec(p, x)
		hi := sve.Mul(p, l2, sve.Dup(ln2Hi))
		return sve.Fma(p, hi, l2, sve.Dup(ln2Lo))
	})
}

func exp2Core(p sve.Pred, t sve.F64) sve.F64 {
	z := sve.Fma(p, sve.Dup(expShift), t, sve.Dup(64))
	u, double := fexpaOperand(p, z)
	scale := sve.Fexpa(p, u)
	n := sve.Sub(p, z, sve.Dup(expShift))
	r := sve.Fms(p, t, n, sve.Dup(1.0/64))
	r = sve.Mul(p, r, sve.Dup(math.Ln2))
	poly := PolyHorner(p, r, expPoly5[:])
	res := sve.Mul(p, scale, poly)
	res = sve.Sel(double, sve.Add(p, res, res), res)
	for l := range res {
		if !p[l] {
			continue
		}
		switch {
		case math.IsNaN(t[l]):
			res[l] = math.NaN()
		case t[l] >= 1023.98:
			res[l] = math.Inf(1)
		case t[l] <= -1021:
			res[l] = 0
		}
	}
	return res
}

func regExp2(dst, src []float64) { unary(dst, src, exp2Core) }

func regPow(dst, xs, ys []float64) {
	checkLen(dst, xs)
	checkLen(dst, ys)
	for base := 0; base < len(xs); base += sve.VL {
		p := sve.WhileLT(base, len(xs))
		x := sve.Load(xs, base, p)
		y := sve.Load(ys, base, p)
		t := sve.Mul(p, y, log2Vec(p, x))
		res := exp2Core(p, t)
		for l := range res {
			if !p[l] {
				continue
			}
			switch {
			case math.IsNaN(x[l]) || math.IsNaN(y[l]) || x[l] < 0,
				x[l] == 0 || math.IsInf(x[l], 0) || math.IsInf(y[l], 0):
				res[l] = math.Pow(x[l], y[l])
			}
		}
		sve.Store(dst, base, p, res)
	}
}

func sinVec(p sve.Pred, x sve.F64) sve.F64 {
	z := sve.Fma(p, sve.Dup(sinShift), x, sve.Dup(twoOverPi))
	n := sve.Sub(p, z, sve.Dup(sinShift))
	r := sve.Fms(p, x, n, sve.Dup(pio2Hi))
	r = sve.Fms(p, r, n, sve.Dup(pio2Lo))
	r2 := sve.Mul(p, r, r)
	sinR := sve.Mul(p, r, PolyHorner(p, r2, sinPoly[:]))
	cosR := PolyHorner(p, r2, cosPoly[:])
	var res sve.F64
	for l := range res {
		if !p[l] {
			continue
		}
		if math.IsNaN(x[l]) || math.IsInf(x[l], 0) {
			res[l] = math.NaN()
			continue
		}
		switch int64(n[l]) & 3 {
		case 0:
			res[l] = sinR[l]
		case 1:
			res[l] = cosR[l]
		case 2:
			res[l] = -sinR[l]
		default:
			res[l] = -cosR[l]
		}
	}
	return res
}

func cosVec(p sve.Pred, x sve.F64) sve.F64 {
	z := sve.Fma(p, sve.Dup(sinShift), x, sve.Dup(twoOverPi))
	n := sve.Sub(p, z, sve.Dup(sinShift))
	r := sve.Fms(p, x, n, sve.Dup(pio2Hi))
	r = sve.Fms(p, r, n, sve.Dup(pio2Lo))
	r2 := sve.Mul(p, r, r)
	sinR := sve.Mul(p, r, PolyHorner(p, r2, sinPoly[:]))
	cosR := PolyHorner(p, r2, cosPoly[:])
	var res sve.F64
	for l := range res {
		if !p[l] {
			continue
		}
		if math.IsNaN(x[l]) || math.IsInf(x[l], 0) {
			res[l] = math.NaN()
			continue
		}
		switch (int64(n[l]) + 1) & 3 {
		case 0:
			res[l] = sinR[l]
		case 1:
			res[l] = cosR[l]
		case 2:
			res[l] = -sinR[l]
		default:
			res[l] = -cosR[l]
		}
	}
	return res
}

func regSin(dst, src []float64) { unary(dst, src, sinVec) }
func regCos(dst, src []float64) { unary(dst, src, cosVec) }

func regSinCos(sinDst, cosDst, src []float64) {
	checkLen(sinDst, src)
	checkLen(cosDst, src)
	for base := 0; base < len(src); base += sve.VL {
		p := sve.WhileLT(base, len(src))
		x := sve.Load(src, base, p)
		sve.Store(sinDst, base, p, sinVec(p, x))
		sve.Store(cosDst, base, p, cosVec(p, x))
	}
}

// allTrueTail is the predicate of the Newton loops: all-true for every
// full vector, whilelt for the ragged tail only.
func allTrueTail(base, n int) sve.Pred {
	if base+sve.VL > n {
		return sve.WhileLT(base, n)
	}
	return sve.AllTrue
}

func regRecipNewton(dst, src []float64) {
	checkLen(dst, src)
	for base := 0; base < len(src); base += sve.VL {
		p := allTrueTail(base, len(src))
		d := sve.Load(src, base, p)
		x := sve.Recpe(p, d)
		for step := 0; step < 3; step++ {
			x = sve.Mul(p, x, sve.Recps(p, d, x))
		}
		for l := range x {
			if p[l] && (d[l] == 0 || math.IsInf(d[l], 0) || math.IsNaN(d[l])) {
				x[l] = 1 / d[l]
			}
		}
		sve.Store(dst, base, p, x)
	}
}

func regSqrtNewton(dst, src []float64) {
	checkLen(dst, src)
	for base := 0; base < len(src); base += sve.VL {
		p := allTrueTail(base, len(src))
		d := sve.Load(src, base, p)
		x := sve.Rsqrte(p, d)
		for step := 0; step < 3; step++ {
			dx := sve.Mul(p, d, x)
			x = sve.Mul(p, x, sve.Rsqrts(p, dx, x))
		}
		s := sve.Mul(p, d, x)
		e := sve.Fms(p, d, s, s)
		s = sve.Fma(p, s, sve.Mul(p, sve.Dup(0.5), x), e)
		for l := range s {
			if p[l] && (d[l] == 0 || math.IsInf(d[l], 1) || math.IsNaN(d[l]) || d[l] < 0) {
				s[l] = math.Sqrt(d[l])
			}
		}
		sve.Store(dst, base, p, s)
	}
}
