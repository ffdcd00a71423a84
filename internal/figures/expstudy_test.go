package figures

import (
	"math"
	"runtime"
	"testing"

	"ookami/internal/stats"
	"ookami/internal/vmath"
)

// The accuracy row of the exponential study measures the FEXPA kernel
// against math.Exp. On amd64 math.Exp is assembly that takes an FMA or a
// non-FMA path depending on the CPU, and architectures without assembly
// run the portable Go code; the three paths do not agree bit for bit,
// so the row can move with the host (EXPERIMENTS.md, "Section IV
// accuracy row"). That is why both golden checks skip expstudy. The
// paper's bound must hold whichever path is the reference.

// portableExp is the portable exp of the Go standard library
// (src/math/exp.go: exp and expmulti), the path math.Exp takes where
// there is no assembly. Copyright 2009 The Go Authors; BSD-style
// license. The method and constants are from FreeBSD's e_exp.c,
// Copyright (C) 2004 by Sun Microsystems, Inc.: "Permission to use,
// copy, modify, and distribute this software is freely granted,
// provided that this notice is preserved."
func portableExp(x float64) float64 {
	const (
		Ln2Hi = 6.93147180369123816490e-01
		Ln2Lo = 1.90821492927058770002e-10
		Log2e = 1.44269504088896338700e+00

		Overflow  = 7.09782712893383973096e+02
		Underflow = -7.45133219101941108420e+02
		NearZero  = 1.0 / (1 << 28) // 2**-28
	)

	// special cases
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > Overflow:
		return math.Inf(1)
	case x < Underflow:
		return 0
	case -NearZero < x && x < NearZero:
		return 1 + x
	}

	// reduce; computed as r = hi - lo for extra precision.
	var k int
	switch {
	case x < 0:
		k = int(Log2e*x - 0.5)
	case x > 0:
		k = int(Log2e*x + 0.5)
	}
	hi := x - float64(k)*Ln2Hi
	lo := float64(k) * Ln2Lo

	// compute
	return portableExpMulti(hi, lo, k)
}

// portableExpMulti returns e**r × 2**k where r = hi - lo and
// |r| ≤ ln(2)/2 (the standard library's expmulti).
func portableExpMulti(hi, lo float64, k int) float64 {
	const (
		P1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
		P2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
		P3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
		P4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
		P5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */
	)

	r := hi - lo
	t := r * r
	c := r - t*(P1+t*(P2+t*(P3+t*(P4+t*P5))))
	y := 1 - ((lo - (r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}

func TestMeasuredUlpWithinPaperBoundOnPortableExp(t *testing.T) {
	portable, n, differ := 0.0, 0, 0
	eachUlpBlock(expStudySamples, func(xs []float64) {
		got := make([]float64, len(xs))
		vmath.Exp(got, xs, vmath.Horner)
		want := make([]float64, len(xs))
		for i, x := range xs {
			want[i] = portableExp(x)
			if want[i] != math.Exp(x) {
				differ++
			}
		}
		portable = max(portable, vmath.MaxUlp(got, want))
		n += len(xs)
	})
	if n != expStudySamples {
		t.Fatalf("the sample stream drew %d inputs, want %d", n, expStudySamples)
	}
	host := MeasuredUlp(vmath.Horner, expStudySamples)
	t.Logf("math.Exp differs from the portable exp on %d of %d samples; max ulp %s against the portable exp, %s against math.Exp",
		differ, n, stats.Format3(portable), stats.Format3(host))
	// "Limited testing suggests that it yields about 6 ulp precision."
	if portable > 6 {
		t.Errorf("max ulp against the portable exp is %s, beyond the paper's ~6", stats.Format3(portable))
	}
}

// TestMeasuredUlpStreamsTheWholeSample checks that the block-wise running
// maximum equals MaxUlp over the whole sample evaluated at once.
func TestMeasuredUlpStreamsTheWholeSample(t *testing.T) {
	const samples = 3*ulpBlock + 17 // a ragged last block
	var xs []float64
	eachUlpBlock(samples, func(block []float64) { xs = append(xs, block...) })
	if len(xs) != samples {
		t.Fatalf("the sample stream drew %d inputs, want %d", len(xs), samples)
	}
	got := make([]float64, samples)
	want := make([]float64, samples)
	vmath.Exp(got, xs, vmath.Horner)
	vmath.ExpSerial(want, xs)
	if whole, streamed := vmath.MaxUlp(got, want), MeasuredUlp(vmath.Horner, samples); streamed != whole {
		t.Errorf("streamed max ulp %v, whole-sample max ulp %v", streamed, whole)
	}
}

// TestMeasuredUlpAllocatesUnder64KiB pins the accuracy row's memory: the
// 200,000-sample row must not hold its sample in memory.
func TestMeasuredUlpAllocatesUnder64KiB(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MeasuredUlp(vmath.Horner, expStudySamples)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("MeasuredUlp allocated %d bytes per call, want under 64 KiB", d)
	}
}
