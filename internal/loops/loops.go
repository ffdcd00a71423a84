// Package loops is the executable form of the paper's Section III test
// suite: the simple, predicate, gather, scatter and short-gather/scatter
// loops plus the math-function loops, each in a scalar reference version
// and an SVE version built on the internal/sve emulation. The tests prove
// the two forms equivalent; the performance story (Figures 1-2) comes from
// compiling the same loops through internal/toolchain into the
// internal/perfmodel scheduler.
package loops

import (
	"math/rand"

	"ookami/internal/sve"
	"ookami/internal/vmath"
)

// Workload holds the input vectors of the suite, sized (as in the paper)
// so the working set fills L1.
type Workload struct {
	N     int
	X     []float64
	Y     []float64
	P     []float64 // exponents for pow
	Index []int64   // full random permutation
	Short []int64   // permutation within 128-byte (16-element) windows
}

// NewWorkload builds a deterministic workload of n elements.
func NewWorkload(n int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{
		N: n,
		X: make([]float64, n),
		Y: make([]float64, n),
		P: make([]float64, n),
	}
	for i := range w.X {
		w.X[i] = rng.Float64()*4 - 2
		w.P[i] = rng.Float64()*6 - 3
	}
	w.Index = make([]int64, n)
	permInto(rng, w.Index, 0)
	w.Short = make([]int64, n)
	WindowPermInto(rng, w.Short, 16)
	return w
}

// FullIndex returns NewWorkload(n, seed).Index without building the
// rest of the workload: it draws and drops the X and P values first, so
// the generator reaches the permutation in the same state.
func FullIndex(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2*n; i++ {
		rng.Float64()
	}
	p := make([]int64, n)
	permInto(rng, p, 0)
	return p
}

// WindowPermInto fills p with a permutation of its indices that moves
// each only within its aligned `window`-element block (16 doubles = 128
// bytes): the paper's "short" variant that stays inside the A64FX
// gather fast path. It draws from rng as rng.Perm does for each block.
func WindowPermInto(rng *rand.Rand, p []int64, window int) {
	for base := 0; base < len(p); base += window {
		end := min(base+window, len(p))
		permInto(rng, p[base:end], int64(base))
	}
}

// permInto writes base + rng.Perm(len(p)) into p without the
// intermediate []int: the same draws, the same swaps, the same result.
func permInto(rng *rand.Rand, p []int64, base int64) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = base + int64(i)
	}
}

// --- simple: y[i] = 2*x[i] + 3*x[i]*x[i] ---

// SimpleScalar is the reference loop.
//
//ookami:pure
func SimpleScalar(y, x []float64) {
	for i := range x {
		y[i] = 2*x[i] + 3*x[i]*x[i]
	}
}

// SimpleSVE is the vector form: y = x*(3x+2) with FMA, predicated tail.
// Executed in two whole-vector batch passes (fmla then fmul) — bit-
// identical to the per-register whilelt loop, without its per-vector
// call and copy overhead.
//
//ookami:pure
func SimpleSVE(y, x []float64) {
	sve.FMAConstSlices(y, x, 3, 2) // 2 + 3x
	sve.MulSlices(y, y, x)         // x * (2 + 3x)
}

// --- predicate: if (x[i] > 0) y[i] = x[i] ---

// PredicateScalar is the branchy reference.
func PredicateScalar(y, x []float64) {
	for i := range x {
		if x[i] > 0 {
			y[i] = x[i]
		}
	}
}

// PredicateSVE replaces the branch with a compare + masked store, batched
// over the whole slice.
//
//ookami:pure
func PredicateSVE(y, x []float64) {
	sve.CopyGTSlices(y, x, 0)
}

// --- gather / scatter ---

// GatherScalar: y[i] = x[index[i]].
func GatherScalar(y, x []float64, idx []int64) {
	for i := range y {
		y[i] = x[idx[i]]
	}
}

// GatherSVE uses the batched vector gather; it also returns the total
// number of memory requests the A64FX load unit would issue given the
// 128-byte pairing rule — the microarchitectural quantity behind the
// paper's short-gather observation.
//
//ookami:pure
func GatherSVE(y, x []float64, idx []int64) (requests int) {
	return sve.GatherSlices(y, x, idx)
}

// ScatterScalar: y[index[i]] = x[i].
func ScatterScalar(y, x []float64, idx []int64) {
	for i := range x {
		y[idx[i]] = x[i]
	}
}

// ScatterSVE uses the batched vector scatter.
//
//ookami:pure
func ScatterSVE(y, x []float64, idx []int64) {
	sve.ScatterSlices(y, x, idx)
}

// --- math-function loops (delegating to the vmath library) ---

// RecipSVE: y[i] = 1/x[i] via Newton iteration.
func RecipSVE(y, x []float64) { vmath.RecipNewton(y, x) }

// SqrtSVE: y[i] = sqrt(|x[i]|) via Newton iteration (abs keeps the suite's
// inputs in domain). The sanitised input is written to y and the kernel
// runs in place; v < 0 rather than math.Abs keeps -0 as -0.
func SqrtSVE(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		if v < 0 {
			v = -v
		}
		y[i] = v
	}
	vmath.SqrtNewton(y, y)
}

// ExpSVE: y[i] = exp(x[i]) via the FEXPA kernel.
func ExpSVE(y, x []float64) { vmath.Exp(y, x, vmath.Horner) }

// SinSVE: y[i] = sin(x[i]).
func SinSVE(y, x []float64) { vmath.Sin(y, x) }

// PowSVE: y[i] = |x[i]|^p[i], with 0 raised as 1e-9. The sanitised base
// is written to y and the kernel runs in place.
func PowSVE(y, x, pw []float64) {
	y = y[:len(x)]
	for i, v := range x {
		if v < 0 {
			v = -v
		}
		if v == 0 {
			v = 1e-9
		}
		y[i] = v
	}
	vmath.Pow(y, y, pw)
}
