//go:build !amd64

package npb

// useAVX2 is false off amd64: boxMuller runs its math.Log loop.
var useAVX2 = false

// boxMullerAVX2 writes no element off amd64.
func boxMullerAVX2([]float64) int { return 0 }
