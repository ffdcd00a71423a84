package npb

// useAVX2 reports whether EP may run its assembly: the host has AVX2 and
// POPCNT, and its OS saves the ymm registers. It is set once, from CPUID
// and XGETBV, when the package initialises. When it is false, block runs
// blockGo and boxMuller its math.Log loop.
var useAVX2 = hasAVX2()

// epBlockAVX2 runs one block of nb pairs (0 <= nb <= epBlock) from the
// odd 46-bit LCG state s, four pairs per step. It fills x and y from the
// state exactly as rng.LCG.Fill does, packs the pairs with
// x*x + y*y <= 1 into b.xs, b.ys and b.fs (t) in pair order, and
// returns the state after the block and the accepted count n. Then,
// for each whole group of four accepted pairs, it replaces t by the
// Box–Muller factor, counts the annulus into acc.q[lane] and adds gx
// and gy to acc.sx and acc.sy in pair order; the last n%4 pairs are
// left for the caller. Every bit is blockGo's. An odd state makes t at
// least 2^-90, so no lane needs boxMullerAVX2's range check.
// Implemented in ep_amd64.s.
//
//go:noescape
func epBlockAVX2(s uint64, nb int, b *epBuf, acc *epSums) (state uint64, n int)

// boxMullerAVX2 replaces fs[k] by math.Sqrt(-2*math.Log(fs[k])/fs[k]),
// with those bits, four elements at a time, and returns how many it
// wrote. It stops before the first group of four that has an element
// outside [SmallestNormal, +Inf) and before a tail of fewer than four.
// It shares epBlockAVX2's log sequence. Implemented in ep_amd64.s.
//
//go:noescape
func boxMullerAVX2(fs []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasAVX2 reports whether the CPU has AVX2 and POPCNT and the OS has
// enabled the SSE and AVX register state (XCR0 bits 1 and 2).
//
//ookami:cold -- one CPUID probe at package initialisation
func hasAVX2() bool {
	const popcnt, osxsave, avx, avx2 = 1 << 23, 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(popcnt|osxsave|avx) != popcnt|osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
