package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMul46MatchesBigArithmetic(t *testing.T) {
	// Cross-check the split multiplication against direct computation in
	// the range where uint64 does not overflow.
	cases := [][2]uint64{{3, 5}, {1 << 20, 1 << 20}, {lcgA, 271828183}, {lcgMask, 2}}
	for _, c := range cases {
		// Direct mod-2^46 product via 128-bit decomposition.
		hi, lo := bits128Mul(c[0], c[1])
		_ = hi
		want := lo & lcgMask
		if got := mul46(c[0], c[1]); got != want {
			t.Errorf("mul46(%d,%d) = %d want %d", c[0], c[1], got, want)
		}
	}
}

func bits128Mul(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return
}

func TestMul46Property(t *testing.T) {
	f := func(a, b uint64) bool {
		a &= lcgMask
		b &= lcgMask
		_, lo := bits128Mul(a, b)
		return mul46(a, b) == lo&lcgMask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCGKnownSequence(t *testing.T) {
	// First values of the NPB stream from seed 271828183: each must lie in
	// (0,1) and the state recurrence must hold exactly.
	g := NewLCG(DefaultSeed)
	prev := g.State()
	for i := 0; i < 1000; i++ {
		v := g.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %d out of range: %v", i, v)
		}
		want := mul46(lcgA, prev)
		if g.State() != want {
			t.Fatalf("state recurrence broken at %d", i)
		}
		prev = g.State()
	}
}

func TestLCGPeriodSanity(t *testing.T) {
	// The generator must not return to the seed quickly (full period is
	// 2^44 for this LCG).
	g := NewLCG(DefaultSeed)
	for i := 0; i < 100000; i++ {
		g.Next()
		if g.State() == DefaultSeed {
			t.Fatalf("premature cycle at step %d", i)
		}
	}
}

func TestSkipMatchesSequentialAdvance(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 64, 1000, 123457} {
		seq := NewLCG(DefaultSeed)
		for i := uint64(0); i < n; i++ {
			seq.Next()
		}
		skip := NewLCG(DefaultSeed)
		skip.Skip(n)
		if seq.State() != skip.State() {
			t.Errorf("Skip(%d) state %d != sequential %d", n, skip.State(), seq.State())
		}
		if at := At(DefaultSeed, n); at.State() != seq.State() {
			t.Errorf("At(%d) mismatch", n)
		}
	}
}

func TestSkipComposes(t *testing.T) {
	// Property: Skip(a) then Skip(b) == Skip(a+b).
	f := func(a, b uint16) bool {
		g1 := NewLCG(DefaultSeed)
		g1.Skip(uint64(a))
		g1.Skip(uint64(b))
		g2 := NewLCG(DefaultSeed)
		g2.Skip(uint64(a) + uint64(b))
		return g1.State() == g2.State()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCGUniformity(t *testing.T) {
	// Coarse chi-square-ish check: 10 bins over 100k draws.
	g := NewLCG(DefaultSeed)
	const n = 100000
	var bins [10]int
	for i := 0; i < n; i++ {
		bins[int(g.Next()*10)]++
	}
	for b, c := range bins {
		if math.Abs(float64(c)-n/10) > 500 {
			t.Errorf("bin %d count %d too far from %d", b, c, n/10)
		}
	}
}

func TestSplitMixDeterministicAndSplittable(t *testing.T) {
	s := SplitMix64{Seed: 42}
	if s.Uint64(5) != s.Uint64(5) {
		t.Error("not deterministic")
	}
	if s.Uint64(5) == s.Uint64(6) {
		t.Error("adjacent outputs equal")
	}
	other := SplitMix64{Seed: 43}
	if s.Uint64(5) == other.Uint64(5) {
		t.Error("different seeds should differ")
	}
	v := s.Float64(9)
	if v < 0 || v >= 1 {
		t.Errorf("float out of range: %v", v)
	}
}

func TestSplitMixFillMatchesPointwise(t *testing.T) {
	s := SplitMix64{Seed: 7}
	buf := make([]float64, 64)
	s.Fill(buf, 100)
	for i := range buf {
		if buf[i] != s.Float64(100+uint64(i)) {
			t.Fatalf("fill mismatch at %d", i)
		}
	}
}

func TestSplitMixUniformity(t *testing.T) {
	s := SplitMix64{Seed: 1}
	const n = 100000
	var bins [10]int
	for i := uint64(0); i < n; i++ {
		bins[int(s.Float64(i)*10)]++
	}
	for b, c := range bins {
		if math.Abs(float64(c)-n/10) > 500 {
			t.Errorf("bin %d count %d too far from %d", b, c, n/10)
		}
	}
}

// mul46Split is the 23+23-bit split multiply of NPB's floating-point
// randlc, which mul46 replaced.
func mul46Split(a, b uint64) uint64 {
	const half = 1 << 23
	a1, a2 := a/half, a%half
	b1, b2 := b/half, b%half
	t := (a1*b2 + a2*b1) % (1 << 23)
	return (t*half + a2*b2) & lcgMask
}

func TestMul46MatchesSplitMultiply(t *testing.T) {
	f := func(a, b uint64) bool {
		a &= lcgMask
		b &= lcgMask
		return mul46(a, b) == mul46Split(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	for _, a := range []uint64{0, 1, lcgA, lcgMask, lcgMask - 1, 1 << 45, 1<<23 - 1, 1 << 23} {
		for _, b := range []uint64{0, 1, lcgA, lcgMask, DefaultSeed, 1 << 45} {
			if got, want := mul46(a, b), mul46Split(a, b); got != want {
				t.Errorf("mul46(%d, %d) = %d, split multiply %d", a, b, got, want)
			}
		}
	}
}
