package explain

import (
	"testing"

	"ookami/internal/machine"
	"ookami/internal/toolchain"
)

// BenchmarkPricePair builds the price table of every resolved
// (toolchain, profiled machine) pair: one op is the 7 tables a server
// builds to answer every pair, 77 compiles and schedules.
func BenchmarkPricePair(b *testing.B) {
	type pair struct {
		tc toolchain.Toolchain
		m  machine.Machine
	}
	var pairs []pair
	for _, tc := range toolchain.All {
		for _, m := range profiledMachines {
			if tc.Supports(m) {
				pairs = append(pairs, pair{tc, m})
			}
		}
	}
	if len(pairs) != 7 {
		b.Fatalf("%d resolved pairs, want 7", len(pairs))
	}
	b.ReportAllocs()
	loops := 0
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			loops += len(PricePair(p.tc, p.m).loops)
		}
	}
	if loops != b.N*7*len(AllLoops) {
		b.Fatalf("priced %d loops, want %d", loops, b.N*7*len(AllLoops))
	}
}
