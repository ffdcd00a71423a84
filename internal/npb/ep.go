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
// away in-flight log/divide/sqrt work; one tight pass of the Box–Muller
// factor; and the histogram and sums in the original pair order. Every
// operand and every sum is the scalar loop's, bit for bit.
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
			var sx, sy, pairs float64
			var q [10]float64
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
				for k := range fs[:n] {
					t := fs[k]
					fs[k] = math.Sqrt(-2 * math.Log(t) / t)
				}
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
					pairs++
				}
			}
			parts[chunk] = partial{sx: sx, sy: sy, q: q, pairs: pairs}
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
