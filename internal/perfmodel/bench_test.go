package perfmodel_test

import (
	"testing"

	"ookami/internal/machine"
	pm "ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// BenchmarkCyclesPerIter times the scheduler on the bodies the figures
// query most: the Fujitsu FEXPA + Horner exp on A64FX, GNU's blocking
// FSQRT loop on A64FX (134 cycles of pipe occupancy per vector), and
// the Intel SVML exp on Skylake's large window.
func BenchmarkCyclesPerIter(b *testing.B) {
	for _, bc := range []struct {
		name string
		tc   toolchain.Toolchain
		loop toolchain.Loop
		m    machine.Machine
	}{
		{"a64fx-horner-exp", toolchain.Fujitsu, toolchain.LoopExp, machine.A64FX},
		{"a64fx-blocking-sqrt", toolchain.GNU, toolchain.LoopSqrt, machine.A64FX},
		{"skylake-exp", toolchain.Intel, toolchain.LoopExp, machine.SkylakeGold6140},
	} {
		prof, _ := pm.ProfileFor(bc.m.Name)
		body := bc.tc.Compile(bc.loop, bc.m).Body
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += prof.CyclesPerIter(body)
			}
			if sink <= 0 {
				b.Fatal("non-positive cycles per iteration")
			}
		})
	}
}
