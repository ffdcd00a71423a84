package npb

import (
	"math"
	"testing"

	"ookami/internal/rng"
)

// acceptedT returns the t = x²+y² of every pair of EP class S chunk
// chunk that lands in the unit disc, in pair order.
func acceptedT(chunk int) []float64 {
	pairsPerChunk := uint64(1) << epChunkLog
	g := rng.At(rng.DefaultSeed, 2*uint64(chunk)*pairsPerChunk)
	var ts []float64
	for range pairsPerChunk {
		x := 2*g.Next() - 1
		y := 2*g.Next() - 1
		if t := x*x + y*y; t <= 1 {
			ts = append(ts, t)
		}
	}
	return ts
}

// boxMullerRef is the one-element Box–Muller factor boxMuller must
// reproduce.
func boxMullerRef(t float64) float64 { return math.Sqrt(-2 * math.Log(t) / t) }

// sameFloat reports whether a and b have the same bits; any NaN matches
// any NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkBoxMuller runs boxMuller on a copy of ts and fails on the first
// element whose bits differ from boxMullerRef's.
func checkBoxMuller(t *testing.T, ts []float64) {
	t.Helper()
	got := append([]float64(nil), ts...)
	boxMuller(got)
	for i, x := range ts {
		if want := boxMullerRef(x); !sameFloat(got[i], want) {
			t.Fatalf("len %d, element %d: t = %v (%#016x): got %v (%#016x), math.Log gives %v (%#016x)",
				len(ts), i, x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// sqrtHalfMantissa returns 2^e × f1 where f1 is the float64 nearest
// √2/2: the one mantissa where math.Log's amd64 assembly and its Go
// code reduce the argument differently.
func sqrtHalfMantissa(e int) float64 { return math.Ldexp(math.Sqrt2/2, e) }

// minNormal is the bits of the smallest normal float64.
const minNormal = 0x0010000000000000

// logEdges are the inputs at the edges of boxMuller's lane path.
var logEdges = []float64{
	0,
	math.SmallestNonzeroFloat64,
	math.Float64frombits(minNormal - 1), // the largest subnormal
	math.Float64frombits(minNormal),
	1,
	sqrtHalfMantissa(0),
	sqrtHalfMantissa(1),
	sqrtHalfMantissa(-1),
	sqrtHalfMantissa(-20),
	sqrtHalfMantissa(-1021),
	sqrtHalfMantissa(32), // math.Log's amd64 and Go code differ here
	sqrtHalfMantissa(1023),
	math.Nextafter(math.Sqrt2/2, 0),
	math.Nextafter(math.Sqrt2/2, 1),
	math.Nextafter(1, 0),
	-0.5,
	math.Inf(1),
	math.NaN(),
}

// TestBoxMullerMatchesMathLog holds the Box–Muller pass to
// the bits of math.Sqrt(-2*math.Log(t)/t): on every accepted t of the
// first and last class S chunks, in block-sized and ragged lengths, and
// with each edge input at every lane position of a group and in the
// tail.
func TestBoxMullerMatchesMathLog(t *testing.T) {
	for _, chunk := range []int{0, 1<<(epM(ClassS)-epChunkLog) - 1} {
		ts := acceptedT(chunk)
		checkBoxMuller(t, ts)
		for n := 0; n < len(ts); n += epBlock {
			checkBoxMuller(t, ts[n:min(n+epBlock, len(ts))])
		}
		for _, n := range []int{1, 2, 3, 5, 6, 7, 9, 511} {
			checkBoxMuller(t, ts[:n])
		}
	}
	fill := []float64{0.25, 0.5, 0.75, 0.9, 0.125, 0.3, 0.6}
	for _, e := range logEdges {
		for n := 1; n <= len(fill); n++ {
			for at := 0; at < n; at++ {
				ts := append([]float64(nil), fill[:n]...)
				ts[at] = e
				checkBoxMuller(t, ts)
			}
		}
	}
}

// TestBoxMullerSqrtHalfEveryExponent holds boxMuller to boxMullerRef on
// 2^e·√2/2 and its two float neighbours, for every e in [-1074, 1023]
// and at each lane of a group of four. √2/2 is the mantissa that
// math.Log's amd64 assembly doubles and its Go code does not, so this
// test is why the kernel needs no fallback for it.
func TestBoxMullerSqrtHalfEveryExponent(t *testing.T) {
	fill := [4]float64{0.25, 0.5, 0.75, 0.9}
	for e := -1074; e <= 1023; e++ {
		x := sqrtHalfMantissa(e)
		for _, v := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
			for lane := range fill {
				ts := fill
				ts[lane] = v
				checkBoxMuller(t, ts[:])
			}
		}
	}
}

// FuzzBoxMullerMatchesMathLog holds boxMuller to math.Log's bits on any
// five inputs, at every length from 1 (tail only) to 5 (one group of
// four and a tail). The committed seeds put each edge of the lane path
// in a group.
func FuzzBoxMullerMatchesMathLog(f *testing.F) {
	f.Add(0.5, 0.25, 0.75, 1.0, 0.1)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		ts := []float64{a, b, c, d, e}
		for n := 1; n <= len(ts); n++ {
			checkBoxMuller(t, ts[:n])
		}
	})
}

// BenchmarkBoxMuller times the Box–Muller pass over the accepted t of
// class S chunk 0 in EP's 512-element blocks: boxMuller (the AVX2
// kernel where the host has it) against the one-element math.Log loop.
func BenchmarkBoxMuller(b *testing.B) {
	ts := acceptedT(0)
	buf := make([]float64, len(ts))
	run := func(b *testing.B, pass func([]float64)) {
		b.ReportAllocs()
		for range b.N {
			copy(buf, ts)
			for n := 0; n < len(buf); n += epBlock {
				pass(buf[n:min(n+epBlock, len(buf))])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/elem")
	}
	b.Run("lanes", func(b *testing.B) { run(b, boxMuller) })
	b.Run("mathlog", func(b *testing.B) {
		run(b, func(fs []float64) {
			for k, t := range fs {
				fs[k] = math.Sqrt(-2 * math.Log(t) / t)
			}
		})
	})
}

// FuzzEPBlockMatchesGo holds one EP block through epBlockAVX2 to the
// bits of blockGo on boxMuller's math.Log loop: from any odd 46-bit LCG
// state and any block length up to epBlock, the accepted pairs (xs, ys
// and their factors fs), the annulus counts, the sums, the accepted
// count and the state after the block must all agree. The sums start
// from values that round, so the order of the adds shows. The committed
// seeds hold a state near 2^46, a length that is not a multiple of
// four, a block that accepts no pair, and an empty block.
func FuzzEPBlockMatchesGo(f *testing.F) {
	f.Add(uint64(rng.DefaultSeed), uint(epBlock))
	f.Fuzz(func(t *testing.T, s uint64, nb uint) {
		if !useAVX2 {
			t.Skip("no AVX2 on this host")
		}
		s = s&(1<<46-1) | 1
		n := int(nb % (epBlock + 1))
		start := epSums{sx: 1.0 / 3, sy: -1.0 / 7}
		var got, want epBuf
		gotAcc, wantAcc := start, start
		gotS := got.block(s, n, &gotAcc)
		useAVX2 = false
		wantS := want.blockGo(s, n, &wantAcc)
		useAVX2 = true
		if gotS != wantS || gotAcc.pairs != wantAcc.pairs {
			t.Fatalf("state %#x, %d pairs: state after %#x, %d accepted; Go: %#x, %d",
				s, n, gotS, gotAcc.pairs, wantS, wantAcc.pairs)
		}
		for k := range wantAcc.pairs {
			if !sameFloat(got.xs[k], want.xs[k]) || !sameFloat(got.ys[k], want.ys[k]) || !sameFloat(got.fs[k], want.fs[k]) {
				t.Fatalf("state %#x, %d pairs: accepted pair %d is (%v, %v, %v), Go (%v, %v, %v)",
					s, n, k, got.xs[k], got.ys[k], got.fs[k], want.xs[k], want.ys[k], want.fs[k])
			}
		}
		if g, w := gotAcc.partial(), wantAcc.partial(); g != w {
			t.Fatalf("state %#x, %d pairs: sums and counts %+v, Go %+v", s, n, g, w)
		}
	})
}

// BenchmarkEPBlock times one class S chunk, 128 blocks of epBlock
// pairs: block (epBlockAVX2 where the host has it) against blockGo on
// boxMuller's math.Log loop.
func BenchmarkEPBlock(b *testing.B) {
	s0 := rng.At(rng.DefaultSeed, 0).State()
	run := func(b *testing.B, pass func(*epBuf, uint64, int, *epSums) uint64) {
		var buf epBuf
		var acc epSums
		b.ReportAllocs()
		for range b.N {
			acc = epSums{}
			s := s0
			for range 1 << epChunkLog / epBlock {
				s = pass(&buf, s, epBlock, &acc)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N<<epChunkLog), "ns/pair")
	}
	b.Run("block", func(b *testing.B) { run(b, (*epBuf).block) })
	b.Run("go", func(b *testing.B) {
		defer func(on bool) { useAVX2 = on }(useAVX2)
		useAVX2 = false
		run(b, (*epBuf).blockGo)
	})
}
