package npb

import (
	"fmt"
	"math"

	"ookami/internal/omp"
	"ookami/internal/perfmodel"
	"ookami/internal/rng"
)

// EP is the Embarrassingly Parallel benchmark: generate 2^(M+1) uniform
// deviates with the NPB LCG, form pairs scaled to (-1,1), accept pairs
// inside the unit disc, transform them to Gaussian deviates with the
// Box–Muller polar method, and histogram max(|X|,|Y|) into ten annuli.
// This implementation follows the NPB spec exactly, including the chunked
// stream partitioning via the LCG's O(log n) jump-ahead, so results are
// identical for any thread count.
//
// Each chunk works in blocks of epBlock pairs held on the stack, in four
// passes: an 8-way LCG fill of the uniforms; a branch-free compaction of
// the accepted pairs, so a mispredicted acceptance test no longer throws
// away in-flight log/divide/sqrt work; the Box–Muller factor, four pairs
// at a time; and the histogram and sums in the original pair order.
// Every operand and every sum is the scalar loop's, bit for bit.
type EP struct{}

// NewEP returns the EP benchmark.
func NewEP() *EP { return &EP{} }

// Name returns "EP".
func (*EP) Name() string { return "EP" }

// epM returns the log2 of the pair count per class (NPB table).
func epM(c Class) uint {
	switch c {
	case ClassS:
		return 24
	case ClassW:
		return 25
	case ClassA:
		return 28
	case ClassB:
		return 30
	default: // ClassC
		return 32
	}
}

// epChunkLog is the log2 of the batch size (NPB uses 2^16 pairs per batch).
const epChunkLog = 16

// epBlock is the number of pairs a chunk works through at a time: 8 KiB
// of uniforms and three 4 KiB arrays of accepted pairs, all on the stack
// and inside L1.
const epBlock = 512

// EPOutput carries the benchmark's raw outputs for verification.
type EPOutput struct {
	SX, SY float64
	Q      [10]float64 // annulus counts
	Pairs  float64     // accepted Gaussian pairs
}

// RunFull executes EP and returns the full output (Run wraps this).
func (e *EP) RunFull(c Class, team *omp.Team) EPOutput {
	m := epM(c)
	nPairs := uint64(1) << m
	nChunks := int(nPairs >> epChunkLog)
	if nChunks == 0 {
		nChunks = 1
	}
	pairsPerChunk := nPairs / uint64(nChunks)

	type partial struct {
		sx, sy float64
		q      [10]float64
		pairs  float64
	}
	// One partial per chunk, merged in chunk order afterwards, so the
	// result is bitwise identical for every thread count.
	parts := make([]partial, nChunks)
	team.ForRange(0, nChunks, omp.Static, 0, func(a, b int) {
		var u [2 * epBlock]float64
		var xs, ys, fs [epBlock]float64
		for chunk := a; chunk < b; chunk++ {
			// Position an independent generator at this chunk's offset:
			// each pair consumes two numbers. The sums stay in locals
			// and the chunk's partial is written once.
			g := rng.At(rng.DefaultSeed, 2*uint64(chunk)*pairsPerChunk)
			var sx, sy float64
			var q [10]int // annulus counts: integer adds, converted once
			pairs := 0
			for left := pairsPerChunk; left > 0; {
				nb := int(min(left, epBlock))
				left -= uint64(nb)
				g.Fill(u[:2*nb])
				// Keep the pairs inside the unit disc without a branch:
				// every pair is stored, and the count moves only for
				// accepted ones, so a rejected pair is overwritten.
				n := 0
				for i := 0; i < nb; i++ {
					x := 2*u[2*i] - 1
					y := 2*u[2*i+1] - 1
					t := x*x + y*y
					xs[n], ys[n], fs[n] = x, y, t
					acc := 0
					if t <= 1 {
						acc = 1
					}
					n += acc
				}
				boxMuller(fs[:n])
				pairs += n
				for k := range fs[:n] {
					gx, gy := xs[k]*fs[k], ys[k]*fs[k]
					// Both are non-negative after Abs, so max truncates
					// to the same annulus as math.Max.
					l := int(max(math.Abs(gx), math.Abs(gy)))
					if l > 9 {
						l = 9
					}
					q[l]++
					sx += gx
					sy += gy
				}
			}
			// Every count is below 2^53, so the conversions are exact
			// and the partial holds the bits of float counters.
			p := partial{sx: sx, sy: sy, pairs: float64(pairs)}
			for l, c := range q {
				p.q[l] = float64(c)
			}
			parts[chunk] = p
		}
	})

	var out EPOutput
	for i := range parts {
		out.SX += parts[i].sx
		out.SY += parts[i].sy
		out.Pairs += parts[i].pairs
		for l := 0; l < 10; l++ {
			out.Q[l] += parts[i].q[l]
		}
	}
	return out
}

// The constants of math.Log's algorithm (FreeBSD's e_log.c), as the Go
// standard library spells them, and the bit patterns log4's range
// reduction works on.
const (
	ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
	ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
	lg1   = 6.666666666666735130e-01   /* 3FE55555 55555593 */
	lg2   = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
	lg3   = 2.857142874366239149e-01   /* 3FD24924 94229359 */
	lg4   = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
	lg5   = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
	lg6   = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
	lg7   = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */

	fracMask   = 1<<52 - 1          // the mantissa field
	halfBits   = 0x3FE0000000000000 // the exponent field of 0.5
	sqrtHalfFr = 0x6A09E667F3BCD    // the mantissa field of math.Sqrt2/2
	minNormal  = 0x0010000000000000 // math.SmallestNormal's bits
	normalSpan = 0x7FF0000000000000 - minNormal
)

// boxMuller replaces every t in fs by the Box–Muller factor
// math.Sqrt(-2*math.Log(t)/t), with the bits of that expression, four
// elements at a time. One element at a time the pass is bound by the
// latency of each log, divide and square root; four independent lanes
// keep the divider and the square-root unit busy.
func boxMuller(fs []float64) {
	k := 0
	for ; k+4 <= len(fs); k += 4 {
		t := (*[4]float64)(fs[k : k+4])
		l0, l1, l2, l3 := log4(t)
		t[0] = math.Sqrt(-2 * l0 / t[0])
		t[1] = math.Sqrt(-2 * l1 / t[1])
		t[2] = math.Sqrt(-2 * l2 / t[2])
		t[3] = math.Sqrt(-2 * l3 / t[3])
	}
	for ; k < len(fs); k++ {
		t := fs[k]
		fs[k] = math.Sqrt(-2 * math.Log(t) / t)
	}
}

// log4 returns math.Log of each element of t, bit for bit, running
// math.Log's algorithm statement by statement in four lanes.
//
// The range reduction (Frexp, then doubling a mantissa below √2/2) works
// on the bits without a branch: the mantissa field under 0.5's exponent
// is f1 in [0.5, 1), and one exponent step is added to it, and one taken
// from k, when its mantissa field is below √2/2's. That needs positive
// normal finite inputs, so a group holding a zero, subnormal, negative,
// infinite or NaN element goes through math.Log instead. So does a group
// with an f1 of exactly √2/2: there the amd64 assembly doubles f1 and
// the portable Go code does not, and at 2^32·√2/2 their results differ.
func log4(t *[4]float64) (l0, l1, l2, l3 float64) {
	b0, b1, b2, b3 := math.Float64bits(t[0]), math.Float64bits(t[1]), math.Float64bits(t[2]), math.Float64bits(t[3])
	if b0-minNormal >= normalSpan || b1-minNormal >= normalSpan || b2-minNormal >= normalSpan || b3-minNormal >= normalSpan ||
		b0&fracMask == sqrtHalfFr || b1&fracMask == sqrtHalfFr || b2&fracMask == sqrtHalfFr || b3&fracMask == sqrtHalfFr {
		return math.Log(t[0]), math.Log(t[1]), math.Log(t[2]), math.Log(t[3])
	}
	// c is 1 when the mantissa field is below √2/2's, else 0.
	c0 := (b0&fracMask - sqrtHalfFr) >> 63
	c1 := (b1&fracMask - sqrtHalfFr) >> 63
	c2 := (b2&fracMask - sqrtHalfFr) >> 63
	c3 := (b3&fracMask - sqrtHalfFr) >> 63
	f0 := math.Float64frombits((b0&fracMask|halfBits)+c0<<52) - 1
	f1 := math.Float64frombits((b1&fracMask|halfBits)+c1<<52) - 1
	f2 := math.Float64frombits((b2&fracMask|halfBits)+c2<<52) - 1
	f3 := math.Float64frombits((b3&fracMask|halfBits)+c3<<52) - 1
	k0 := float64(int64(b0>>52) - 1022 - int64(c0))
	k1 := float64(int64(b1>>52) - 1022 - int64(c1))
	k2 := float64(int64(b2>>52) - 1022 - int64(c2))
	k3 := float64(int64(b3>>52) - 1022 - int64(c3))
	s0 := f0 / (2 + f0)
	s1 := f1 / (2 + f1)
	s2 := f2 / (2 + f2)
	s3 := f3 / (2 + f3)
	z0, z1, z2, z3 := s0*s0, s1*s1, s2*s2, s3*s3
	w0, w1, w2, w3 := z0*z0, z1*z1, z2*z2, z3*z3
	t10 := z0 * (lg1 + w0*(lg3+w0*(lg5+w0*lg7)))
	t11 := z1 * (lg1 + w1*(lg3+w1*(lg5+w1*lg7)))
	t12 := z2 * (lg1 + w2*(lg3+w2*(lg5+w2*lg7)))
	t13 := z3 * (lg1 + w3*(lg3+w3*(lg5+w3*lg7)))
	t20 := w0 * (lg2 + w0*(lg4+w0*lg6))
	t21 := w1 * (lg2 + w1*(lg4+w1*lg6))
	t22 := w2 * (lg2 + w2*(lg4+w2*lg6))
	t23 := w3 * (lg2 + w3*(lg4+w3*lg6))
	r0, r1, r2, r3 := t10+t20, t11+t21, t12+t22, t13+t23
	h0, h1, h2, h3 := 0.5*f0*f0, 0.5*f1*f1, 0.5*f2*f2, 0.5*f3*f3
	l0 = k0*ln2Hi - ((h0 - (s0*(h0+r0) + k0*ln2Lo)) - f0)
	l1 = k1*ln2Hi - ((h1 - (s1*(h1+r1) + k1*ln2Lo)) - f1)
	l2 = k2*ln2Hi - ((h2 - (s2*(h2+r2) + k2*ln2Lo)) - f2)
	l3 = k3*ln2Hi - ((h3 - (s3*(h3+r3) + k3*ln2Lo)) - f3)
	return l0, l1, l2, l3
}

// Run executes EP and verifies its outputs. For the executable classes the
// verification is (a) exact thread-count independence, established by the
// test suite, and (b) the statistical invariants of the Gaussian outputs:
// acceptance ratio pi/4, annulus fractions, and mean bounds.
func (e *EP) Run(c Class, team *omp.Team) (Result, error) {
	out := e.RunFull(c, team)
	n := float64(uint64(1) << epM(c))
	res := Result{Benchmark: "EP", Class: c, Checksum: out.SX, Stats: e.Characterize(c)}

	// Acceptance ratio must be pi/4 to Monte-Carlo accuracy.
	ratio := out.Pairs / n
	tol := 4 / math.Sqrt(n)
	if math.Abs(ratio-math.Pi/4) > tol {
		return res, fmt.Errorf("EP: acceptance ratio %v, want %v +- %v", ratio, math.Pi/4, tol)
	}
	// Gaussian annulus fractions: P(l <= max(|X|,|Y|) < l+1) with X,Y iid
	// N(0,1) conditioned on acceptance; the dominant mass sits in annuli
	// 0-2 with fraction ~0.68, 0.27, 0.043 respectively.
	p0 := gaussAnnulus(0)
	if math.Abs(out.Q[0]/out.Pairs-p0) > 0.01 {
		return res, fmt.Errorf("EP: annulus-0 fraction %v, want %v", out.Q[0]/out.Pairs, p0)
	}
	// Means of the sums are 0; bound |sx|/pairs by a few sigmas.
	if math.Abs(out.SX)/out.Pairs > 5/math.Sqrt(out.Pairs) {
		return res, fmt.Errorf("EP: sx mean too large: %v", out.SX/out.Pairs)
	}
	res.Verified = true
	return res, nil
}

// gaussAnnulus returns P(l <= max(|X|,|Y|) < l+1) for iid standard normals
// (the Box–Muller outputs are unconditionally N(0,1)).
func gaussAnnulus(l int) float64 {
	cdf := func(x float64) float64 { return math.Erf(x / math.Sqrt2) } // P(|X|<x)
	in := func(x float64) float64 { return cdf(x) * cdf(x) }           // P(max<x)
	return in(float64(l+1)) - in(float64(l))
}

// Characterize computes EP's cost model: per pair, two LCG steps (~16
// flops), the acceptance test (4 flops) and, for accepted pairs (pi/4),
// one log, one sqrt, one divide and ~8 flops. Memory traffic is
// negligible — EP is the compute-bound pole of Figures 3-6.
func (e *EP) Characterize(c Class) Stats {
	n := float64(uint64(1) << epM(c))
	accepted := n * math.Pi / 4
	return Stats{
		Flops:       n*20 + accepted*8,
		StreamBytes: 1e6, // chunk buffers only
		MathCalls: map[perfmodel.MathFn]float64{
			perfmodel.FnLog:  accepted,
			perfmodel.FnSqrt: accepted,
		},
		VecFrac:    0.15, // the LCG recurrence and acceptance bookkeeping stay scalar
		SerialFrac: 1e-6,
		Barriers:   float64(team48Chunks(c)),
	}
}

func team48Chunks(c Class) int {
	n := int(uint64(1) << (epM(c) - epChunkLog))
	if n == 0 {
		n = 1
	}
	return 1 + n/1024
}
