// Package rng provides the random number generators the workloads need:
//
//   - the NAS Parallel Benchmarks' 46-bit linear congruential generator
//     (x_{k+1} = 5^13 * x_k mod 2^46), spec-exact including the power-law
//     jump-ahead that lets EP partition its stream across threads; and
//   - a splittable SplitMix64 counter generator for workloads that need a
//     cheap vectorizable source (the paper's Monte-Carlo discussion: "a
//     manual call to a vectorized random number generator is still
//     necessary").
package rng

// NPB LCG constants (NPB 3.x randdp): a = 5^13, modulus 2^46.
const (
	lcgA    = 1220703125 // 5^13
	lcgMod  = 1 << 46
	lcgMask = lcgMod - 1
	// R46 converts a 46-bit integer state to a double in (0, 1).
	r46 = 1.0 / (1 << 46)
	// DefaultSeed is the EP benchmark's seed, 271828183 (from e).
	DefaultSeed = 271828183
)

// LCG is the NPB 46-bit multiplicative linear congruential generator.
// The zero value is invalid; use NewLCG.
type LCG struct {
	state uint64
}

// NewLCG returns a generator seeded with the given odd seed
// (NPB uses 271828183 for EP and 314159265 for CG/makea).
func NewLCG(seed uint64) *LCG {
	return &LCG{state: seed & lcgMask}
}

// mul46 computes (a*b) mod 2^46. uint64 multiplication wraps mod 2^64,
// and 2^46 divides 2^64, so masking the wrapped product is exact — the
// 23+23-bit split NPB's floating-point randlc needs is unnecessary here.
func mul46(a, b uint64) uint64 {
	return (a * b) & lcgMask
}

// Next advances the state once and returns a uniform double in (0, 1),
// exactly NPB's randlc.
func (g *LCG) Next() float64 {
	g.state = mul46(lcgA, g.state)
	return float64(g.state) * r46
}

// State returns the current 46-bit state.
func (g *LCG) State() uint64 { return g.state }

// Skip advances the generator by n steps in O(log n) using repeated
// squaring of the multiplier — NPB EP's mechanism for giving each
// process/thread an independent slice of the stream.
func (g *LCG) Skip(n uint64) {
	a := uint64(lcgA)
	for n > 0 {
		if n&1 == 1 {
			g.state = mul46(a, g.state)
		}
		a = mul46(a, a)
		n >>= 1
	}
}

// At returns a new generator positioned n steps after seed, without
// mutating g (convenience for spawning per-thread streams).
//
//ookami:pure builds a fresh generator
func At(seed, n uint64) *LCG {
	g := NewLCG(seed)
	g.Skip(n)
	return g
}

// SplitMix64 is a splittable counter-based generator: Uint64(i) is a pure
// function of (seed, i), so any lane or thread can draw element i
// independently — the structure a vectorized random number generator needs.
type SplitMix64 struct {
	Seed uint64
}

// Uint64 returns the i-th element of the stream.
//
//ookami:pure counter-mode generator, no internal state
func (s SplitMix64) Uint64(i uint64) uint64 {
	z := s.Seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns the i-th element as a double in [0, 1).
//
//ookami:pure
func (s SplitMix64) Float64(i uint64) float64 {
	return float64(s.Uint64(i)>>11) * (1.0 / (1 << 53))
}

// Fill populates dst with consecutive stream elements starting at `from`.
//
//ookami:pure fills only the caller-owned dst
func (s SplitMix64) Fill(dst []float64, from uint64) {
	for i := range dst {
		dst[i] = s.Float64(from + uint64(i))
	}
}
