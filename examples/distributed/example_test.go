package main

// Example runs the distributed program and pins its output, so the example
// cannot silently break.
func Example() {
	main()
	// Output:
	// distributed HPL (n=128, cyclic rows, global pivoting):
	//   1 ranks: residual 0.0065 (HPL pass < 16),        0 bytes moved (      0/rank)
	//   2 ranks: residual 0.0065 (HPL pass < 16),   268800 bytes moved ( 134400/rank)
	//   4 ranks: residual 0.0065 (HPL pass < 16),   515584 bytes moved ( 128896/rank)
	//   8 ranks: residual 0.0065 (HPL pass < 16),   841216 bytes moved ( 105152/rank)
	//
	// distributed FFT (4096 points as 64x64, four-step):
	//   1 ranks: max |err|^2 vs serial 1.26e-27, transpose traffic        0 bytes
	//   2 ranks: max |err|^2 vs serial 1.26e-27, transpose traffic    98304 bytes
	//   4 ranks: max |err|^2 vs serial 1.26e-27, transpose traffic   147456 bytes
	//   8 ranks: max |err|^2 vs serial 1.26e-27, transpose traffic   172032 bytes
	//
	// Note how FFT traffic *grows* with ranks while the work is fixed —
	// the communication floor behind the paper's flat multi-node FFT curve.
}
