package loops

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ookami/internal/vmath"
)

func TestWorkloadShapes(t *testing.T) {
	w := NewWorkload(1000, 1)
	if len(w.X) != 1000 || len(w.Index) != 1000 || len(w.Short) != 1000 {
		t.Fatal("sizes")
	}
	// Index is a permutation.
	seen := make([]bool, 1000)
	for _, v := range w.Index {
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatalf("not a permutation: %d", v)
		}
		seen[v] = true
	}
	// Short stays within its 16-element window.
	for i, v := range w.Short {
		if int(v)/16 != i/16 && int(v) < 992 && i < 992 {
			t.Fatalf("short index %d escapes window of %d", v, i)
		}
	}
	// Deterministic across constructions.
	w2 := NewWorkload(1000, 1)
	for i := range w.X {
		if w.X[i] != w2.X[i] || w.Index[i] != w2.Index[i] {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestSimpleEquivalence(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 100, 1023} {
		w := NewWorkload(n, 2)
		ys := make([]float64, n)
		yv := make([]float64, n)
		SimpleScalar(ys, w.X)
		SimpleSVE(yv, w.X)
		for i := range ys {
			if math.Abs(ys[i]-yv[i]) > 4e-16*(1+math.Abs(ys[i])) {
				t.Fatalf("n=%d i=%d: %v vs %v", n, i, ys[i], yv[i])
			}
		}
	}
}

func TestPredicateEquivalence(t *testing.T) {
	for _, n := range []int{1, 8, 100, 513} {
		w := NewWorkload(n, 3)
		ys := make([]float64, n)
		yv := make([]float64, n)
		for i := range ys {
			ys[i] = -5
			yv[i] = -5
		}
		PredicateScalar(ys, w.X)
		PredicateSVE(yv, w.X)
		for i := range ys {
			if ys[i] != yv[i] {
				t.Fatalf("n=%d i=%d: %v vs %v (x=%v)", n, i, ys[i], yv[i], w.X[i])
			}
		}
	}
}

func TestGatherScatterEquivalence(t *testing.T) {
	for _, n := range []int{8, 16, 100, 1000} {
		w := NewWorkload(n, 4)
		ys := make([]float64, n)
		yv := make([]float64, n)
		GatherScalar(ys, w.X, w.Index)
		GatherSVE(yv, w.X, w.Index)
		for i := range ys {
			if ys[i] != yv[i] {
				t.Fatalf("gather n=%d i=%d", n, i)
			}
		}
		zs := make([]float64, n)
		zv := make([]float64, n)
		ScatterScalar(zs, w.X, w.Index)
		ScatterSVE(zv, w.X, w.Index)
		for i := range zs {
			if zs[i] != zv[i] {
				t.Fatalf("scatter n=%d i=%d", n, i)
			}
		}
	}
}

func TestShortGatherRequestCounts(t *testing.T) {
	// The window permutation must produce ~half the memory requests of the
	// full permutation — the 2x fast path the microarchitecture manual
	// describes and Figure 1 reflects.
	n := 1 << 12
	w := NewWorkload(n, 5)
	y := make([]float64, n)
	full := GatherSVE(y, w.X, w.Index)
	short := GatherSVE(y, w.X, w.Short)
	if short >= full {
		t.Fatalf("short gather (%d requests) should beat full (%d)", short, full)
	}
	// Short: every consecutive pair lies in one window -> n/2 requests.
	if short != n/2 {
		t.Errorf("short gather requests = %d, want %d", short, n/2)
	}
	// Full permutation: nearly no pairing (expected pairing chance ~1/256).
	if float64(full) < 0.9*float64(n) {
		t.Errorf("full gather requests = %d, want ~%d", full, n)
	}
}

func TestMathLoopsMatchLibm(t *testing.T) {
	n := 4096
	w := NewWorkload(n, 6)
	y := make([]float64, n)

	RecipSVE(y, w.X)
	for i := range y {
		if math.Abs(y[i]*w.X[i]-1) > 1e-12 {
			t.Fatalf("recip[%d]", i)
		}
	}
	SqrtSVE(y, w.X)
	for i := range y {
		want := math.Sqrt(math.Abs(w.X[i]))
		if math.Abs(y[i]-want) > 1e-12*(1+want) {
			t.Fatalf("sqrt[%d] = %v want %v", i, y[i], want)
		}
	}
	ExpSVE(y, w.X)
	for i := range y {
		want := math.Exp(w.X[i])
		if math.Abs(y[i]-want) > 1e-13*want {
			t.Fatalf("exp[%d]", i)
		}
	}
	SinSVE(y, w.X)
	for i := range y {
		if math.Abs(y[i]-math.Sin(w.X[i])) > 1e-14 {
			t.Fatalf("sin[%d]", i)
		}
	}
	PowSVE(y, w.X, w.P)
	for i := range y {
		base := math.Abs(w.X[i])
		if base == 0 {
			base = 1e-9
		}
		want := math.Pow(base, w.P[i])
		if math.Abs(y[i]-want) > 1e-9*(1+want) {
			t.Fatalf("pow[%d] = %v want %v", i, y[i], want)
		}
	}
}

func TestWindowPermutationProperty(t *testing.T) {
	// Property: windowPermutation output is always a permutation whose
	// elements stay within their window.
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		p := make([]int64, n)
		WindowPermInto(rng, p, 16)
		seen := make([]bool, n)
		for i, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
			if i/16 != int(v)/16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSqrtPowSVEInPlace checks that SqrtSVE and PowSVE, which run their
// kernels in place on y, allocate nothing and give the bits of the
// kernels run out of place on a sanitised copy (-0 stays -0 for sqrt;
// a zero base is raised as 1e-9).
func TestSqrtPowSVEInPlace(t *testing.T) {
	w := NewWorkload(1001, 7)
	x := append([]float64{0, math.Copysign(0, -1), -4, math.Inf(-1)}, w.X...)
	p := append([]float64{2, 3, 0.5, 1}, w.P...)
	abs, base := make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		if v < 0 {
			v = -v
		}
		abs[i] = v
		if v == 0 {
			v = 1e-9
		}
		base[i] = v
	}
	y, want := make([]float64, len(x)), make([]float64, len(x))
	SqrtSVE(y, x)
	vmath.SqrtNewton(want, abs)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sqrt[%d] = %v, out of place %v", i, y[i], want[i])
		}
	}
	PowSVE(y, x, p)
	vmath.Pow(want, base, p)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("pow[%d] = %v, out of place %v", i, y[i], want[i])
		}
	}
	if a := testing.AllocsPerRun(10, func() { SqrtSVE(y, x) }); a != 0 {
		t.Errorf("SqrtSVE: %v allocations per call, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { PowSVE(y, x, p) }); a != 0 {
		t.Errorf("PowSVE: %v allocations per call, want 0", a)
	}
}

// TestPermutationsMatchRandPerm pins the in-place permutations to the
// rand.Perm draws they replace, block by block, and FullIndex to the
// workload's own index.
func TestPermutationsMatchRandPerm(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 1000, 1 << 12} {
		ref := rand.New(rand.NewSource(int64(n)))
		got := rand.New(rand.NewSource(int64(n)))
		for _, window := range []int{1, 2, 16, n} {
			want := make([]int64, n)
			for base := 0; base < n; base += window {
				for i, v := range ref.Perm(min(window, n-base)) {
					want[base+i] = int64(base + v)
				}
			}
			p := make([]int64, n)
			WindowPermInto(got, p, window)
			if !slices.Equal(p, want) {
				t.Fatalf("n %d window %d: in-place permutation differs from rand.Perm", n, window)
			}
		}
		if !slices.Equal(FullIndex(n, 5), NewWorkload(n, 5).Index) {
			t.Fatalf("n %d: FullIndex differs from NewWorkload's Index", n)
		}
	}
}
