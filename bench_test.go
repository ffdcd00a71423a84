// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the artifact end to end), plus wall-clock
// benchmarks of the real kernels that back them. Run with
//
//	go test -bench=. -benchmem
//
// The Figure/Table benchmarks report the model's headline number for each
// artifact as a custom metric, so `go test -bench` output doubles as a
// summary of the reproduction.
package ookami_test

import (
	"math/rand"
	"testing"

	"ookami/internal/blas"
	"ookami/internal/cache"
	"ookami/internal/fft"
	"ookami/internal/figures"
	"ookami/internal/hpcc"
	"ookami/internal/loops"
	"ookami/internal/lulesh"
	"ookami/internal/machine"
	"ookami/internal/montecarlo"
	"ookami/internal/mpi"
	"ookami/internal/npb"
	"ookami/internal/omp"
	"ookami/internal/toolchain"
	"ookami/internal/vmath"
)

// --- one benchmark per figure/table ---

func benchFigure(b *testing.B, id string, metricName string, metric func() float64) {
	item, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	// A fresh engine per iteration keeps every iteration a cold pass, as
	// one ookami-figures run is; a shared engine would time memo hits.
	defer figures.SetEngine(figures.ActiveEngine())
	var out string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figures.SetEngine(nil)
		out = item.Generate().String()
	}
	if out == "" {
		b.Fatal("empty artifact")
	}
	if metric != nil {
		b.ReportMetric(metric(), metricName)
	}
}

func BenchmarkFig1SimpleLoops(b *testing.B) {
	benchFigure(b, "fig1", "fujitsu-simple-rel", func() float64 {
		return figures.RelativeRuntime(toolchain.Fujitsu, toolchain.LoopSimple)
	})
}

func BenchmarkFig2MathLoops(b *testing.B) {
	benchFigure(b, "fig2", "fujitsu-exp-rel", func() float64 {
		return figures.RelativeRuntime(toolchain.Fujitsu, toolchain.LoopExp)
	})
}

func BenchmarkExpStudy(b *testing.B) {
	benchFigure(b, "expstudy", "fixed-width-cyc/elem", func() float64 {
		return figures.KernelCycles(figures.FixedStructure, toolchain.Horner)
	})
}

func BenchmarkFig3NPBSingleCore(b *testing.B) {
	benchFigure(b, "fig3", "ep-intel-margin", func() float64 {
		ep, _ := npb.ByName("EP")
		a64 := figures.NPBTime(ep, toolchain.Fujitsu, machine.A64FX, 1, false)
		skx := figures.NPBTime(ep, toolchain.Intel, machine.SkylakeGold6140, 1, false)
		return a64 / skx
	})
}

func BenchmarkFig4NPBAllCores(b *testing.B) {
	benchFigure(b, "fig4", "sp-cmg0-penalty", func() float64 {
		sp, _ := npb.ByName("SP")
		def := figures.NPBTime(sp, toolchain.Fujitsu, machine.A64FX, 48, false)
		ft := figures.NPBTime(sp, toolchain.Fujitsu, machine.A64FX, 48, true)
		return def / ft
	})
}

func BenchmarkFig5ScalingA64FX(b *testing.B) {
	benchFigure(b, "fig5", "sp-eff@48", func() float64 {
		sp, _ := npb.ByName("SP")
		eff := figures.Efficiencies(sp, toolchain.GNU, machine.A64FX, figures.ScalingThreadsA64)
		return eff[len(eff)-1]
	})
}

func BenchmarkFig6ScalingSKX(b *testing.B) {
	benchFigure(b, "fig6", "ep-eff@36", func() float64 {
		ep, _ := npb.ByName("EP")
		eff := figures.Efficiencies(ep, toolchain.Intel, machine.SkylakeGold6140, figures.ScalingThreadsSKX)
		return eff[len(eff)-1]
	})
}

func BenchmarkTableIILULESH(b *testing.B) {
	benchFigure(b, "tableII", "base-st-a64fx-s", func() float64 {
		return figures.LuleshTime(toolchain.Fujitsu, machine.A64FX, lulesh.Base, 1)
	})
}

func BenchmarkTableIIISystems(b *testing.B) {
	benchFigure(b, "tableIII", "a64fx-peak-gf/core", machine.A64FX.PeakGFLOPSCore)
}

func BenchmarkFig8DGEMM(b *testing.B) {
	benchFigure(b, "fig8", "fujitsu-vs-openblas", func() float64 {
		return hpcc.DGEMMPerCore(hpcc.Ookami, hpcc.FujitsuSSL).GflopsCore /
			hpcc.DGEMMPerCore(hpcc.Ookami, hpcc.OpenBLAS).GflopsCore
	})
}

func BenchmarkFig9HPL(b *testing.B) {
	benchFigure(b, "fig9ab", "fujitsu-vs-openblas", func() float64 {
		return hpcc.HPLRun(hpcc.Ookami, hpcc.FujitsuSSL, 1).Gflops /
			hpcc.HPLRun(hpcc.Ookami, hpcc.OpenBLAS, 1).Gflops
	})
}

func BenchmarkFig9FFT(b *testing.B) {
	benchFigure(b, "fig9cd", "fujitsu-vs-fftw", func() float64 {
		return hpcc.FFTRun(hpcc.Ookami, hpcc.FujitsuSSL, 1).Gflops /
			hpcc.FFTRun(hpcc.Ookami, hpcc.OpenBLAS, 1).Gflops
	})
}

// --- real-kernel wall-clock benchmarks ---

func randVec(n int, lo, hi float64) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + rng.Float64()*(hi-lo)
	}
	return xs
}

func BenchmarkExpFEXPAHorner(b *testing.B) {
	xs := randVec(4096, -700, 700)
	dst := make([]float64, len(xs))
	b.SetBytes(int64(8 * len(xs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vmath.Exp(dst, xs, vmath.Horner)
	}
}

func BenchmarkExpFEXPAEstrin(b *testing.B) {
	xs := randVec(4096, -700, 700)
	dst := make([]float64, len(xs))
	b.SetBytes(int64(8 * len(xs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vmath.Exp(dst, xs, vmath.Estrin)
	}
}

func BenchmarkExpSerialLibm(b *testing.B) {
	xs := randVec(4096, -700, 700)
	dst := make([]float64, len(xs))
	b.SetBytes(int64(8 * len(xs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vmath.ExpSerial(dst, xs)
	}
}

func BenchmarkSqrtNewton(b *testing.B) {
	xs := randVec(4096, 0.001, 1e6)
	dst := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vmath.SqrtNewton(dst, xs)
	}
}

func BenchmarkGatherFullPermutation(b *testing.B) {
	w := loops.NewWorkload(1<<14, 1)
	y := make([]float64, w.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loops.GatherSVE(y, w.X, w.Index)
	}
}

func BenchmarkGatherShortWindows(b *testing.B) {
	w := loops.NewWorkload(1<<14, 1)
	y := make([]float64, w.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loops.GatherSVE(y, w.X, w.Short)
	}
}

func BenchmarkDgemmNaive(b *testing.B)   { benchDgemm(b, blas.DgemmNaive) }
func BenchmarkDgemmBlocked(b *testing.B) { benchDgemm(b, blas.DgemmBlocked) }
func BenchmarkDgemmPacked(b *testing.B)  { benchDgemm(b, blas.DgemmPacked) }

func benchDgemm(b *testing.B, fn blas.Dgemm) {
	const n = 192
	team := omp.NewTeam(0)
	a := randVec(n*n, -1, 1)
	bb := randVec(n*n, -1, 1)
	c := make([]float64, n*n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fn(team, n, a, bb, c)
	}
	sec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(blas.FlopsDgemm(n)/sec/1e9, "GFLOP/s")
}

func BenchmarkHPLFactor(b *testing.B) {
	const n = 256
	team := omp.NewTeam(0)
	src := randVec(n*n, -1, 1)
	a := make([]float64, n*n)
	piv := make([]int, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(a, src)
		if err := blas.LUFactor(team, n, a, piv, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFTPlanned(b *testing.B) {
	const n = 1 << 14
	p, err := fft.NewPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	team := omp.NewTeam(0)
	y := make([]complex128, n)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(y, x)
		if err := p.Transform(team, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNPBEPClassS(b *testing.B) {
	ep := npb.NewEP()
	team := omp.NewTeam(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ep.RunFull(npb.ClassS, team)
	}
}

func BenchmarkNPBCGClassS(b *testing.B) {
	cg := npb.NewCG()
	team := omp.NewTeam(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cg.RunFull(npb.ClassS, team)
	}
}

func BenchmarkLuleshStepBase(b *testing.B) { benchLulesh(b, lulesh.Base) }
func BenchmarkLuleshStepVect(b *testing.B) { benchLulesh(b, lulesh.Vect) }

func benchLulesh(b *testing.B, v lulesh.Variant) {
	team := omp.NewTeam(0)
	s := lulesh.NewSim(10, team, v)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// benchSink keeps pure-function results live so the compiler cannot
// eliminate the timed work (the false-speedup bug ookami-vet flags).
var benchSink float64

func BenchmarkMonteCarloNaive(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = montecarlo.Naive(100000, 271828183)
	}
}

func BenchmarkMonteCarloOptimized(b *testing.B) {
	team := omp.NewTeam(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = montecarlo.Optimized(team, 128, 100000/128, 99)
	}
}

// --- distributed (message-passing) kernels ---

func BenchmarkDistHPL2Ranks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resid, _, err := mpi.DistHPL(2, 96, 2026)
		if err != nil || resid > 16 {
			b.Fatalf("resid %v err %v", resid, err)
		}
	}
}

func BenchmarkDistFFT4Ranks(b *testing.B) {
	x := make([]complex128, 64*64)
	for i := range x {
		x[i] = complex(float64(i%13), float64(i%7))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := mpi.DistFFT(4, x, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// --- cache simulation and STREAM ---

func BenchmarkCacheStridedSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := cache.A64FXHierarchy()
		cache.StridedSweep(h, 0, 4096, 1<<14)
	}
}

func BenchmarkStreamTriadHost(b *testing.B) {
	team := omp.NewTeam(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hpcc.RunStream(team, 1<<18, 1)
	}
}
