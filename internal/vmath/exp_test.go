package vmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randRange(rng *rand.Rand, lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + rng.Float64()*(hi-lo)
	}
	return xs
}

func refExp(xs []float64) []float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	return ys
}

// TestExpAccuracyPaperClaim verifies the Section IV accuracy claim: the
// FEXPA kernel yields about 6 ulp over the permissible input range.
func TestExpAccuracyPaperClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := randRange(rng, -700, 700, 100000)
	dst := make([]float64, len(xs))
	for _, form := range []PolyForm{Horner, Estrin} {
		Exp(dst, xs, form)
		maxU := MaxUlp(dst, refExp(xs))
		if maxU > 6 {
			t.Errorf("form %v: max ulp %.1f > 6 (paper's measured bound)", form, maxU)
		}
		if maxU == 0 {
			t.Errorf("form %v: suspiciously exact — reference path?", form)
		}
	}
}

func TestExpNearZeroAndSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := randRange(rng, -0.01, 0.01, 10000)
	xs = append(xs, 0, math.Copysign(0, -1), 1, -1, math.Ln2, -math.Ln2)
	dst := make([]float64, len(xs))
	Exp(dst, xs, Horner)
	if maxU := MaxUlp(dst, refExp(xs)); maxU > 4 {
		t.Errorf("near-zero max ulp %.1f", maxU)
	}
	if dst[len(xs)-6] != 1 { // exp(0) must be exact
		t.Errorf("exp(0) = %v", dst[len(xs)-6])
	}
}

func TestExpEdgeCases(t *testing.T) {
	xs := []float64{710, 1000, math.Inf(1), -710, -1000, math.Inf(-1), math.NaN()}
	dst := make([]float64, len(xs))
	Exp(dst, xs, Horner)
	if !math.IsInf(dst[0], 1) || !math.IsInf(dst[1], 1) || !math.IsInf(dst[2], 1) {
		t.Errorf("overflow lanes: %v", dst[:3])
	}
	if dst[3] != 0 || dst[4] != 0 || dst[5] != 0 {
		t.Errorf("underflow lanes: %v", dst[3:6])
	}
	if !math.IsNaN(dst[6]) {
		t.Errorf("NaN lane: %v", dst[6])
	}
}

func TestExpHornerVsEstrinClose(t *testing.T) {
	// The two polynomial forms round differently but must stay within a
	// couple of ulp of each other.
	rng := rand.New(rand.NewSource(4))
	xs := randRange(rng, -100, 100, 20000)
	h := make([]float64, len(xs))
	e := make([]float64, len(xs))
	Exp(h, xs, Horner)
	Exp(e, xs, Estrin)
	if maxU := MaxUlp(h, e); maxU > 2 {
		t.Errorf("Horner vs Estrin max ulp %.1f", maxU)
	}
}

func TestExpPortedGenericAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := randRange(rng, -700, 700, 50000)
	dst := make([]float64, len(xs))
	ExpPortedGeneric(dst, xs)
	if maxU := MaxUlp(dst, refExp(xs)); maxU > 8 {
		t.Errorf("ported generic max ulp %.1f", maxU)
	}
}

func TestExpPortedGenericEdges(t *testing.T) {
	xs := []float64{0, 710, -710, math.NaN(), 1, -1}
	dst := make([]float64, len(xs))
	ExpPortedGeneric(dst, xs)
	if dst[0] != 1 || !math.IsInf(dst[1], 1) || dst[2] != 0 || !math.IsNaN(dst[3]) {
		t.Errorf("ported edges: %v", dst)
	}
}

func TestExpSerialMatchesLibm(t *testing.T) {
	xs := []float64{-3, -1, 0, 1, 3, 100}
	dst := make([]float64, len(xs))
	ExpSerial(dst, xs)
	for i, x := range xs {
		if dst[i] != math.Exp(x) {
			t.Errorf("serial exp(%v) = %v", x, dst[i])
		}
	}
}

func TestExpMonotoneProperty(t *testing.T) {
	// Property: for a < b in range, exp(a) <= exp(b) within 6 ulp slack —
	// the kernel must not have discontinuities at reduction boundaries.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := randRange(rng, -20, 20, 256)
		// Sort-by-construction: cumulative offsets.
		for i := 1; i < len(xs); i++ {
			xs[i] = xs[i-1] + math.Abs(xs[i])/1000
		}
		dst := make([]float64, len(xs))
		Exp(dst, xs, Horner)
		for i := 1; i < len(dst); i++ {
			if dst[i] < dst[i-1]*(1-1e-14) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestExpReductionBoundaries(t *testing.T) {
	// Exercise x exactly at multiples of ln2/128 where i/m roll over.
	var xs []float64
	for k := -2000; k <= 2000; k++ {
		xs = append(xs, float64(k)*math.Ln2/128)
	}
	dst := make([]float64, len(xs))
	Exp(dst, xs, Horner)
	if maxU := MaxUlp(dst, refExp(xs)); maxU > 6 {
		t.Errorf("boundary max ulp %.1f", maxU)
	}
}

func TestExpLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch must panic")
		}
	}()
	Exp(make([]float64, 3), make([]float64, 4), Horner)
}

func TestTwoPow(t *testing.T) {
	for m := int64(-1022); m <= 1023; m += 7 {
		if got, want := twoPow(m), math.Ldexp(1, int(m)); got != want {
			t.Fatalf("twoPow(%d) = %g want %g", m, got, want)
		}
	}
	if got := twoPow(-1030); got != math.Ldexp(1, -1030) {
		t.Errorf("subnormal twoPow = %g", got)
	}
	if !math.IsInf(twoPow(1024), 1) {
		t.Error("twoPow(1024) should overflow")
	}
}

func TestExpCorrectedTighterThanBase(t *testing.T) {
	// The Section IV refinement: correcting the last FMA brings the
	// kernel from ~3 ulp to ~2 ulp, "comparable with Fujitsu".
	rng := rand.New(rand.NewSource(6))
	xs := randRange(rng, -700, 700, 200000)
	base := make([]float64, len(xs))
	corr := make([]float64, len(xs))
	ref := refExp(xs)
	Exp(base, xs, Horner)
	ExpCorrected(corr, xs)
	ub := MaxUlp(base, ref)
	uc := MaxUlp(corr, ref)
	if uc > 2 {
		t.Errorf("corrected kernel max ulp %.1f, want <= 2", uc)
	}
	if uc >= ub {
		t.Errorf("correction did not help: %.1f vs %.1f", uc, ub)
	}
	// Mean error should drop too.
	if MeanUlp(corr, ref) >= MeanUlp(base, ref) {
		t.Error("corrected mean ulp should improve")
	}
}

func TestExpCorrectedEdges(t *testing.T) {
	xs := []float64{0, 710, -710, math.NaN(), 1}
	got := make([]float64, len(xs))
	ExpCorrected(got, xs)
	if got[0] != 1 || !math.IsInf(got[1], 1) || got[2] != 0 || !math.IsNaN(got[3]) {
		t.Errorf("corrected edges: %v", got)
	}
	if got[4] != math.Exp(1) {
		// exp(1) should be correctly rounded by the corrected kernel.
		if UlpDiff(got[4], math.Exp(1)) > 1 {
			t.Errorf("exp(1) = %v (%v ulp)", got[4], UlpDiff(got[4], math.Exp(1)))
		}
	}
}

func TestExpOverflowBoundaryCoversFullDomain(t *testing.T) {
	// Two boundary facts this kernel gets right:
	//  1. Go's amd64 math.Exp overflows prematurely (above ~709.436,
	//     although log(MaxFloat64) = 709.7827): our kernel stays finite
	//     and accurate through that region.
	//  2. The FEXPA scale saturates when m = 1024 (the last log2/64-wide
	//     window); the scale-split ("mask manipulation" per the paper)
	//     keeps the kernel exact up to the true overflow threshold.
	// Reference: 2*exp(x - ln2) evaluated below the quirk region; its
	// argument-rounding error bounds the comparison at ~1e-13 relative.
	for _, x := range []float64{709.45, 709.6, 709.7, 709.75, 709.78, 709.782} {
		got := make([]float64, 1)
		Exp(got, []float64{x}, Horner)
		if math.IsInf(got[0], 1) {
			t.Fatalf("exp(%v) overflowed; true threshold is %v", x, expMax)
		}
		ref := 2 * math.Exp(x-math.Ln2)
		if rel := math.Abs(got[0]-ref) / ref; rel > 1e-11 {
			t.Errorf("exp(%v) = %g vs composed reference %g (rel %g)", x, got[0], ref, rel)
		}
	}
	// And past the true threshold: +Inf.
	got := make([]float64, 1)
	Exp(got, []float64{709.7828}, Horner)
	if !math.IsInf(got[0], 1) {
		t.Errorf("exp just past log(MaxFloat64) = %g, want +Inf", got[0])
	}
	// The corrected kernel behaves identically at the boundary.
	ExpCorrected(got, []float64{709.78})
	if math.IsInf(got[0], 1) || math.IsNaN(got[0]) {
		t.Errorf("corrected boundary = %v", got[0])
	}
}
