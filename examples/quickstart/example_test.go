package main

import (
	"fmt"

	"ookami/examples/internal/capture"
)

// Example runs the quickstart program and pins its output (trailing table
// padding trimmed), so the example cannot silently break.
func Example() {
	if err := capture.Trimmed(main); err != nil {
		fmt.Println(err)
	}
	// Output:
	// Ookami (Fujitsu A64FX, SVE 512-bit, 48 cores @ 1.80 GHz, 57.6 GFLOP/s/core)
	//   4 CMGs x 12 cores, 256 GB/s HBM per CMG, ridge point 2.7 flop/byte
	//
	// Fig. 2: math-function runtime on A64FX relative to Intel/Skylake
	// loop   Fujitsu  Cray  ARM   GNU
	// --------------------------------
	// recip  3.56     3.99  4.92  57.6
	// sqrt   2.06     2.23  19.7  19.7
	// exp    2.68     6.70  10.3  45.8
	// sin    2.66     4.74  6.21  71.8
	// pow    3.10     4.82  7.38  56.4
	//
	// NPB EP class S: verified=true, checksum -3247.834652
}
