//go:build !amd64

package npb

// useAVX2 is false off amd64: block runs blockGo and boxMuller its
// math.Log loop.
var useAVX2 = false

// epBlockAVX2 is never called off amd64.
func epBlockAVX2(s uint64, nb int, b *epBuf, acc *epSums) (uint64, int) {
	panic("npb: epBlockAVX2 without AVX2")
}

// boxMullerAVX2 writes no element off amd64.
func boxMullerAVX2([]float64) int { return 0 }
