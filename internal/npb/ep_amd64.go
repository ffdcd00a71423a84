package npb

// useAVX2 reports whether boxMuller may run boxMullerAVX2: the host has
// AVX2 and its OS saves the ymm registers. It is set once, from CPUID
// and XGETBV, when the package initialises.
var useAVX2 = hasAVX2()

// boxMullerAVX2 replaces fs[k] by math.Sqrt(-2*math.Log(fs[k])/fs[k]),
// with those bits, four elements at a time, and returns how many it
// wrote. It stops before the first group of four that has an element
// outside [SmallestNormal, +Inf) and before a tail of fewer than four.
// Implemented in ep_amd64.s.
//
//go:noescape
func boxMullerAVX2(fs []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

// hasAVX2 reports whether the CPU has AVX2 and the OS has enabled the
// SSE and AVX register state (XCR0 bits 1 and 2).
//
//ookami:cold -- one CPUID probe at package initialisation
func hasAVX2() bool {
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
