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
// element whose bits differ from boxMullerRef's. It also holds log4 on
// each whole group of four to math.Log's bits, since a wrong log can
// still give the right factor where the factor is NaN.
func checkBoxMuller(t *testing.T, ts []float64) {
	t.Helper()
	for k := 0; k+4 <= len(ts); k += 4 {
		var got [4]float64
		got[0], got[1], got[2], got[3] = log4((*[4]float64)(ts[k : k+4]))
		for j, x := range ts[k : k+4] {
			if want := math.Log(x); !sameFloat(got[j], want) {
				t.Fatalf("log4 of %v, lane %d: t = %v (%#016x): got %v (%#016x), math.Log gives %v (%#016x)",
					ts[k:k+4], j, x, math.Float64bits(x), got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
			}
		}
	}
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

// TestBoxMullerMatchesMathLog holds the four-lane Box–Muller pass to
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
// class S chunk 0 in EP's 512-element blocks: the four-lane pass
// against the one-element math.Log loop it replaces.
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
