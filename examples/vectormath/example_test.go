package main

import (
	"fmt"

	"ookami/examples/internal/capture"
)

// Example runs the vectormath program and pins its output (trailing table
// padding trimmed), so the example cannot silently break.
func Example() {
	if err := capture.Trimmed(main); err != nil {
		fmt.Println(err)
	}
	// Output:
	// FEXPA(0x10085) = 8.44516142688446  (2^(3+5/64) = 8.44516142688446)
	//
	// FEXPA kernel (Horner):   max 3.00 ulp
	// FEXPA kernel (Estrin):   max 4.00 ulp
	// ported generic (13-term): max 2.00 ulp
	//
	// modeled cost, VLA         : 2.25 cycles/element (Horner), 1.92 (Estrin)
	// modeled cost, fixed-width : 2.23 cycles/element (Horner), 1.87 (Estrin)
	// modeled cost, unrolled x2 : 1.85 cycles/element (Horner), 1.75 (Estrin)
	//
	// Sec. IV: the exponential function on A64FX
	// implementation              cycles/element  notes
	// ------------------------------------------------------------------------
	// GNU (serial glibc)          32.0            no vector math library
	// ARM 21 (vector lib)         7.19            ported generic kernel
	// Cray (vector lib)           4.68            ported generic kernel
	// Fujitsu (vector lib)        1.87            FEXPA kernel
	// Intel on Skylake            1.44            SVML
	// this work, VLA              2.25            FEXPA + 5-term Horner
	// this work, fixed-width      2.23            FEXPA + 5-term Horner
	// this work, unrolled x2      1.85            FEXPA + 5-term Horner
	// this work, unrolled Estrin  1.75            Estrin form, slightly faster
	// measured accuracy           3.00            max ulp over (-700,700)
}
