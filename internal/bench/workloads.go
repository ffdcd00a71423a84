// Workload definitions: the paper's executable kernels at the fixed
// sizes, seeds and team widths that the committed baseline records.
// This file is the one place that decides which workloads exist and
// how each one is set up; the kernel packages do not know the harness.
package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"ookami/internal/blas"
	"ookami/internal/fft"
	"ookami/internal/hpcc"
	"ookami/internal/loops"
	"ookami/internal/lulesh"
	"ookami/internal/npb"
	"ookami/internal/omp"
	"ookami/internal/stencil"
	"ookami/internal/vmath"
)

// threads fixes the team width of every parallel workload, so baseline
// and current runs measure the same configuration whatever the host's
// core count.
const threads = 2

func init() {
	registerLoops()
	registerVmath()
	registerNPB()
	registerLulesh()
	registerHPCC()
	registerBLAS()
	registerFFT()
	registerStencil()
}

// vec builds a deterministic input vector on [lo, hi).
func vec(n int, seed int64, lo, hi float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + rng.Float64()*(hi-lo)
	}
	return xs
}

// registerLoops registers the Section III loop suite. 2^14 doubles
// matches the gather benchmarks of the root harness.
func registerLoops() {
	const n = 1 << 14
	reg := func(kernel, doc string, setup func(w *loops.Workload, y []float64) func()) {
		Register(Workload{
			Name:   "loops/" + kernel,
			Doc:    doc,
			Params: map[string]string{"n": fmt.Sprint(n), "seed": "1"},
			Setup: func() (func(), error) {
				w := loops.NewWorkload(n, 1)
				y := make([]float64, w.N)
				return setup(w, y), nil
			},
		})
	}
	reg("simple", "y = 2x + 3x^2, SVE FMA form",
		func(w *loops.Workload, y []float64) func() { return func() { loops.SimpleSVE(y, w.X) } })
	reg("simple-scalar", "y = 2x + 3x^2, scalar reference",
		func(w *loops.Workload, y []float64) func() { return func() { loops.SimpleScalar(y, w.X) } })
	reg("predicate", "masked copy of positive elements",
		func(w *loops.Workload, y []float64) func() { return func() { loops.PredicateSVE(y, w.X) } })
	reg("gather", "vector gather over a full random permutation",
		func(w *loops.Workload, y []float64) func() { return func() { loops.GatherSVE(y, w.X, w.Index) } })
	reg("gather-short", "vector gather within 128-byte windows (A64FX fast path)",
		func(w *loops.Workload, y []float64) func() { return func() { loops.GatherSVE(y, w.X, w.Short) } })
	reg("scatter", "vector scatter over a full random permutation",
		func(w *loops.Workload, y []float64) func() { return func() { loops.ScatterSVE(y, w.X, w.Index) } })
	reg("recip", "1/x via Newton iteration",
		func(w *loops.Workload, y []float64) func() { return func() { loops.RecipSVE(y, w.X) } })
	reg("sqrt", "sqrt(|x|) via Newton iteration",
		func(w *loops.Workload, y []float64) func() { return func() { loops.SqrtSVE(y, w.X) } })
}

// registerVmath registers the FEXPA exp variants and the other vector
// math kernels. 4096 elements matches the root harness's math loops.
func registerVmath() {
	const n = 4096
	reg := func(kernel, doc string, setup func() (func(), error)) {
		Register(Workload{
			Name:   "vmath/" + kernel,
			Doc:    doc,
			Params: map[string]string{"n": fmt.Sprint(n), "seed": "1"},
			Setup:  setup,
		})
	}
	reg("exp-horner", "FEXPA exp, Horner polynomial", func() (func(), error) {
		xs, dst := vec(n, 1, -700, 700), make([]float64, n)
		return func() { vmath.Exp(dst, xs, vmath.Horner) }, nil
	})
	reg("exp-estrin", "FEXPA exp, Estrin polynomial", func() (func(), error) {
		xs, dst := vec(n, 1, -700, 700), make([]float64, n)
		return func() { vmath.Exp(dst, xs, vmath.Estrin) }, nil
	})
	reg("exp-serial", "serial libm-style exp reference", func() (func(), error) {
		xs, dst := vec(n, 1, -700, 700), make([]float64, n)
		return func() { vmath.ExpSerial(dst, xs) }, nil
	})
	reg("sin", "vector sin", func() (func(), error) {
		xs, dst := vec(n, 1, -3, 3), make([]float64, n)
		return func() { vmath.Sin(dst, xs) }, nil
	})
	reg("pow", "vector pow over positive bases", func() (func(), error) {
		xs, pw, dst := vec(n, 1, 0.1, 10), vec(n, 2, -3, 3), make([]float64, n)
		return func() { vmath.Pow(dst, xs, pw) }, nil
	})
}

// registerNPB registers the six NPB pseudo-applications at class S,
// the class the test suite executes. Each timed iteration is one full
// verified run: an unverified checksum is a correctness bug, surfaced
// as a panic the runner isolates.
func registerNPB() {
	for _, b := range npb.Suite() {
		Register(Workload{
			Name: "npb/" + strings.ToLower(b.Name()) + "-s",
			Doc:  "NPB " + b.Name() + " class S, full verified run",
			Params: map[string]string{
				"class":   npb.ClassS.String(),
				"threads": fmt.Sprint(threads),
			},
			Setup: func() (func(), error) {
				team := omp.NewTeam(threads)
				return func() {
					r, err := b.Run(npb.ClassS, team)
					if err != nil {
						panic(err)
					}
					if !r.Verified {
						panic("npb bench: " + b.Name() + " failed verification")
					}
				}, nil
			},
		})
	}
}

// registerLulesh registers one LULESH time step, base and vectorized,
// on the root harness's 10^3-element mesh. The simulation advances
// across iterations; the per-step cost is structurally constant (fixed
// mesh, same passes), which is what the timer measures.
func registerLulesh() {
	const n = 10
	for _, v := range []lulesh.Variant{lulesh.Base, lulesh.Vect} {
		Register(Workload{
			Name: "lulesh/step-" + strings.ToLower(v.String()),
			Doc:  "one LULESH Sedov time step, " + v.String() + " variant",
			Params: map[string]string{
				"n":       fmt.Sprint(n),
				"threads": fmt.Sprint(threads),
				"variant": v.String(),
			},
			Setup: func() (func(), error) {
				return lulesh.NewSim(n, omp.NewTeam(threads), v).Step, nil
			},
		})
	}
}

// registerHPCC registers the executable HPCC memory kernels, STREAM
// and GUPS. Their DGEMM, HPL and FFT counterparts come from blas and
// fft below.
func registerHPCC() {
	const (
		streamN = 1 << 15
		gupsLog = 16
		updates = 1 << 14
	)
	Register(Workload{
		Name: "hpcc/stream",
		Doc:  "one STREAM pass (copy/scale/add/triad)",
		Params: map[string]string{
			"n":       fmt.Sprint(streamN),
			"threads": fmt.Sprint(threads),
		},
		Setup: func() (func(), error) {
			team := omp.NewTeam(threads)
			return func() { hpcc.RunStream(team, streamN, 1) }, nil
		},
	})
	Register(Workload{
		Name: "hpcc/gups",
		Doc:  "random-access table updates (GUPS)",
		Params: map[string]string{
			"logSize": fmt.Sprint(gupsLog),
			"updates": fmt.Sprint(updates),
			"threads": fmt.Sprint(threads),
		},
		Setup: func() (func(), error) {
			team := omp.NewTeam(threads)
			return func() { hpcc.RunGUPS(team, gupsLog, updates) }, nil
		},
	})
}

// registerBLAS registers the DGEMM variants and the HPL panel LU
// factorization.
func registerBLAS() {
	const (
		dgemmN = 128
		luN    = 192
	)
	for _, d := range []struct {
		kernel, doc string
		fn          blas.Dgemm
	}{
		{"dgemm-blocked", "cache-blocked DGEMM", blas.DgemmBlocked},
		{"dgemm-packed", "packed-panel DGEMM", blas.DgemmPacked},
	} {
		Register(Workload{
			Name: "blas/" + d.kernel,
			Doc:  d.doc,
			Params: map[string]string{
				"n":       fmt.Sprint(dgemmN),
				"threads": fmt.Sprint(threads),
			},
			Setup: func() (func(), error) {
				team := omp.NewTeam(threads)
				a, b := vec(dgemmN*dgemmN, 1, -1, 1), vec(dgemmN*dgemmN, 2, -1, 1)
				c := make([]float64, dgemmN*dgemmN)
				return func() { d.fn(team, dgemmN, a, b, c) }, nil
			},
		})
	}
	Register(Workload{
		Name: "blas/hpl-lu",
		Doc:  "HPL-style panel LU factorization with partial pivoting",
		Params: map[string]string{
			"n":       fmt.Sprint(luN),
			"panel":   "32",
			"threads": fmt.Sprint(threads),
		},
		Setup: func() (func(), error) {
			team := omp.NewTeam(threads)
			src := vec(luN*luN, 3, -1, 1)
			a := make([]float64, luN*luN)
			piv := make([]int, luN)
			return func() {
				copy(a, src)
				if err := blas.LUFactor(team, luN, a, piv, 32); err != nil {
					panic(err)
				}
			}, nil
		},
	})
}

// registerFFT registers the planned transform. Each iteration restores
// the input (Transform works in place) and runs one forward transform.
func registerFFT() {
	const n = 1 << 14
	Register(Workload{
		Name: "fft/transform",
		Doc:  "planned complex FFT, forward transform",
		Params: map[string]string{
			"n":       fmt.Sprint(n),
			"threads": fmt.Sprint(threads),
		},
		Setup: func() (func(), error) {
			p, err := fft.NewPlan(n)
			if err != nil {
				return nil, err
			}
			team := omp.NewTeam(threads)
			rng := rand.New(rand.NewSource(2))
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.Float64(), rng.Float64())
			}
			y := make([]complex128, n)
			return func() {
				copy(y, x)
				if err := p.Transform(team, y); err != nil {
					panic(err)
				}
			}, nil
		},
	})
}

// registerStencil registers the scalar and parallel 7-point Jacobi
// sweeps.
func registerStencil() {
	const n = 48
	grids := func() (out, g *stencil.Grid3) {
		g = stencil.NewGrid3(n)
		for i := range g.U {
			g.U[i] = float64(i%13) * 0.1
		}
		return stencil.NewGrid3(n), g
	}
	params := map[string]string{"n": fmt.Sprint(n), "threads": fmt.Sprint(threads)}
	Register(Workload{
		Name:   "stencil/seven7",
		Doc:    "7-point Jacobi sweep, SVE form",
		Params: params,
		Setup: func() (func(), error) {
			out, g := grids()
			return func() { stencil.Seven7SVE(out, g, 0.4, 0.1) }, nil
		},
	})
	Register(Workload{
		Name:   "stencil/seven7-parallel",
		Doc:    "7-point Jacobi sweep on the simulated OpenMP team",
		Params: params,
		Setup: func() (func(), error) {
			team := omp.NewTeam(threads)
			out, g := grids()
			return func() { stencil.Seven7Parallel(team, out, g, 0.4, 0.1) }, nil
		},
	})
}
