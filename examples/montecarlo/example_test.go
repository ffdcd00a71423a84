package main

// Example runs the montecarlo program and pins its output, so the example
// cannot silently break.
func Example() {
	main()
	// Output:
	// target: E[x] over the truncated exponential = 0.999999998
	//
	// naive serial loop:  mean 0.999255 (err 7.5e-04)
	// restructured (1024 chains x 2048 steps): mean 1.005188 (err 5.2e-03)
	//
	// The restructuring is what Section III is about: on real SVE
	// hardware the optimized form vectorizes and threads; under this
	// emulation both paths compute the same statistics, verified above.
}
