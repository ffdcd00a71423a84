package vmath

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// laneCase runs one exported kernel both ways on the same inputs: the
// lane form the package ships and the register reference of
// ref_test.go. xs and ys have equal length; unary kernels ignore ys.
// SinCos returns its sine outputs followed by its cosine outputs.
type laneCase struct {
	name      string
	lo, hi    float64 // the natural domain of xs for seeded inputs
	lane, ref func(xs, ys []float64) []float64
}

func unaryCase(name string, lo, hi float64, lane, ref func(dst, src []float64)) laneCase {
	run := func(fn func(dst, src []float64)) func(xs, _ []float64) []float64 {
		return func(xs, _ []float64) []float64 {
			dst := make([]float64, len(xs))
			fn(dst, xs)
			return dst
		}
	}
	return laneCase{name: name, lo: lo, hi: hi, lane: run(lane), ref: run(ref)}
}

func sinCosCase(sc func(sinDst, cosDst, src []float64)) func(xs, _ []float64) []float64 {
	return func(xs, _ []float64) []float64 {
		out := make([]float64, 2*len(xs))
		sc(out[:len(xs)], out[len(xs):], xs)
		return out
	}
}

func powCase(pow func(dst, xs, ys []float64)) func(xs, ys []float64) []float64 {
	return func(xs, ys []float64) []float64 {
		dst := make([]float64, len(xs))
		pow(dst, xs, ys)
		return dst
	}
}

// laneCases lists every exported lane kernel; the fuzz target's fn byte
// indexes it.
var laneCases = []laneCase{
	unaryCase("exp-horner", -745, 710,
		func(d, s []float64) { Exp(d, s, Horner) }, func(d, s []float64) { regExp(d, s, Horner) }),
	unaryCase("exp-estrin", -745, 710,
		func(d, s []float64) { Exp(d, s, Estrin) }, func(d, s []float64) { regExp(d, s, Estrin) }),
	unaryCase("exp-corrected", -745, 710, ExpCorrected, regExpCorrected),
	unaryCase("exp-ported", -745, 710, ExpPortedGeneric, regExpPortedGeneric),
	unaryCase("sin", -1e5, 1e5, Sin, regSin),
	unaryCase("cos", -1e5, 1e5, Cos, regCos),
	{name: "sincos", lo: -1e5, hi: 1e5, lane: sinCosCase(SinCos), ref: sinCosCase(regSinCos)},
	unaryCase("log", 0, 1e300, Log, regLog),
	unaryCase("log2", 0, 1e300, Log2, regLog2),
	unaryCase("exp2", -1100, 1100, Exp2, regExp2),
	{name: "pow", lo: 0, hi: 100, lane: powCase(Pow), ref: powCase(regPow)},
	unaryCase("recip", -1e6, 1e6, RecipNewton, regRecipNewton),
	unaryCase("sqrt", 0, 1e6, SqrtNewton, regSqrtNewton),
}

// sameBits reports the first element where got and want differ in their
// bits; any two NaNs compare equal.
func sameBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return -1, false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) &&
			!(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i, false
		}
	}
	return 0, true
}

func checkLaneCase(t *testing.T, c laneCase, xs, ys []float64) {
	t.Helper()
	got, want := c.lane(xs, ys), c.ref(xs, ys)
	if i, ok := sameBits(got, want); !ok {
		j := i % max(len(xs), 1)
		t.Fatalf("%s over %d elements: element %d (x=%v y=%v) is %v (%#x), register reference %v (%#x)",
			c.name, len(xs), i, xs[j], ys[j], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
	}
}

// laneEdges are the inputs where the kernels branch or saturate: NaN,
// ±Inf, ±0, the smallest subnormal, both sides of the exp saturation
// bounds, the top octave where the FEXPA operand is halved, tiny
// magnitudes, multiples of pi/2 and a large sin/cos argument.
var laneEdges = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324,
	math.Nextafter(expMax, math.Inf(1)), math.Nextafter(expMax, math.Inf(-1)),
	math.Nextafter(expMin, math.Inf(1)), math.Nextafter(expMin, math.Inf(-1)),
	709.08, 709.3, 709.5, 709.78,
	1e-300, -1e-300,
	math.Pi / 2, math.Pi, 3 * math.Pi / 2, 1e5 * math.Pi / 2, 1e6,
}

// laneSeed is one seed of FuzzVmathMatchesRegisterRef.
type laneSeed struct {
	fn   byte
	x, y float64
	n    uint16
}

// laneSeeds pairs every kernel with every edge (y = -x, over 9
// elements, so the second vector is a one-lane whilelt tail), and adds
// pow's IEEE corners x in {0, -1, Inf} against y in {±Inf, NaN}.
func laneSeeds() []laneSeed {
	var seeds []laneSeed
	for fn := range laneCases {
		for _, x := range laneEdges {
			y := -x
			if math.IsNaN(x) {
				y = x // the encoding spells only the canonical NaN as NaN
			}
			seeds = append(seeds, laneSeed{byte(fn), x, y, 9})
		}
	}
	pow := byte(laneIndex("pow"))
	for _, x := range []float64{0, -1, math.Inf(1)} {
		for _, y := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			if y != -x { // (Inf, -Inf) is already an edge seed
				seeds = append(seeds, laneSeed{pow, x, y, 9})
			}
		}
	}
	return seeds
}

func laneIndex(name string) int {
	for i, c := range laneCases {
		if c.name == name {
			return i
		}
	}
	panic("no lane case " + name)
}

// laneInputs fills n elements from the fuzzer's x and y: xs alternates
// x, y and ys alternates y, x, so every vector holds both values.
func laneInputs(x, y float64, n int) (xs, ys []float64) {
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = x, y
		if i%2 == 1 {
			xs[i], ys[i] = y, x
		}
	}
	return xs, ys
}

// seedFile is the committed corpus file for one seed, in the fuzzing
// engine's encoding.
func seedFile(s laneSeed) (name, body string) {
	name = fmt.Sprintf("%s-%x-%x", laneCases[s.fn].name, math.Float64bits(s.x), math.Float64bits(s.y))
	body = fmt.Sprintf("go test fuzz v1\nbyte(%q)\nfloat64(%v)\nfloat64(%v)\nuint16(%d)\n", s.fn, s.x, s.y, s.n)
	return name, body
}

// TestLaneSeedCorpus checks the committed corpus holds every seed of
// laneSeeds.
func TestLaneSeedCorpus(t *testing.T) {
	for _, s := range laneSeeds() {
		name, body := seedFile(s)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzVmathMatchesRegisterRef", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Errorf("%s: corpus holds %q, want %q", name, got, body)
		}
	}
}

// FuzzVmathMatchesRegisterRef runs a lane kernel and its register
// reference over n%37 elements filled from x and y, so ragged whilelt
// tails of every length occur, and requires the same bits element by
// element. The seed corpus under testdata/fuzz holds laneSeeds.
func FuzzVmathMatchesRegisterRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, fn byte, x, y float64, n uint16) {
		c := laneCases[int(fn)%len(laneCases)]
		xs, ys := laneInputs(x, y, int(n%37))
		checkLaneCase(t, c, xs, ys)
	})
}

// TestLaneKernelsMatchRegisterRef feeds 2^16 seeded inputs per kernel
// (mostly its natural domain, plus raw bit patterns and the edge set)
// through the lane form and the register reference at slice lengths
// 0, 1, 7, 8, 9 and 4097, and requires identical bits.
func TestLaneKernelsMatchRegisterRef(t *testing.T) {
	const inputs = 1 << 16
	rng := rand.New(rand.NewSource(23))
	draw := func(lo, hi float64) float64 {
		switch k := rng.Intn(16); {
		case k == 0:
			return math.Float64frombits(rng.Uint64())
		case k == 1:
			return laneEdges[rng.Intn(len(laneEdges))]
		default:
			return lo + rng.Float64()*(hi-lo)
		}
	}
	for _, c := range laneCases {
		xs, ys := make([]float64, inputs), make([]float64, inputs)
		for i := range xs {
			xs[i], ys[i] = draw(c.lo, c.hi), draw(-20, 20)
		}
		for _, n := range []int{0, 1, 7, 8, 9, 4097} {
			if n == 0 {
				checkLaneCase(t, c, nil, nil)
				continue
			}
			for lo := 0; lo < inputs; lo += n {
				hi := min(lo+n, inputs)
				checkLaneCase(t, c, xs[lo:hi], ys[lo:hi])
			}
		}
	}
}
