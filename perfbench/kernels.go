package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"ookami/internal/bench"
	"ookami/internal/fft"
	"ookami/internal/mpi"
	"ookami/internal/omp"
	"ookami/internal/sve"

	// The kernel packages register their workloads in init functions.
	_ "ookami/internal/blas"
	_ "ookami/internal/hpcc"
	_ "ookami/internal/loops"
	_ "ookami/internal/lulesh"
	_ "ookami/internal/npb"
	_ "ookami/internal/stencil"
	_ "ookami/internal/vmath"
)

// Probe sizes. A probe call repeats its operation so one call lasts
// well above timer resolution; metrics divide by the repeat count.
const (
	sveElems   = 1 << 14 // elements per batch op (128 KiB per operand)
	sveReps    = 32
	ompReps    = 64
	ompForN    = 1 << 14
	ompChunk   = 256
	hplN       = 96
	hplMaxRes  = 16 // the HPL acceptance threshold on the scaled residual
	fftRows    = 32
	fftCols    = 64
	fftMaxErr  = 1e-8
	mpiRanks   = 2
	ompThreads = 2
)

// kernelPart is one call of a kernel sweep: a registered bench workload
// or a probe of the sve, omp or mpi layer.
type kernelPart struct {
	name  string // registry name ("loops/simple") or probe name ("sve/triad")
	layer string // span category: the suite, or sve/omp/mpi
	call  func() error
	// metric is the per-layer name; scale converts the median call time
	// in ms to its unit (per element, per region, ...).
	metric string
	scale  float64
	err    error // a Setup failure: every call of this part fails
	suite  bool  // a registered workload, not a probe
}

// kernelsRun calls every registered workload and every probe once per
// sweep, in a seeded order fixed for the run.
type kernelsRun struct {
	parts []kernelPart
}

func setupKernels(seed int64) (func() (runner, error), error) {
	return func() (runner, error) {
		r := &kernelsRun{}
		for _, w := range bench.All() {
			suite, _, _ := strings.Cut(w.Name, "/")
			p := kernelPart{name: w.Name, layer: suite, metric: kernelMetric(w.Name), scale: 1e3, suite: true}
			iter, err := w.Setup()
			if err != nil {
				p.err = &bench.RunError{Kind: bench.ErrSetup, Workload: w.Name, Msg: err.Error()}
			} else {
				p.call = guard(w.Name, iter)
			}
			r.parts = append(r.parts, p)
		}
		r.parts = append(r.parts, probeParts(seed)...)
		order := seededOrder(seed, len(r.parts))
		shuffled := make([]kernelPart, len(r.parts))
		for i, j := range order {
			shuffled[i] = r.parts[j]
		}
		r.parts = shuffled
		// One untimed sweep faults in every input and lets lazy set-up
		// finish before timing; a failing part is counted when timed.
		_ = r.sweep(newPhase(), 0)
		return r, nil
	}, nil
}

// guard turns a panicking iteration into a bench.ErrPanic error.
func guard(name string, iter func()) func() error {
	return func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &bench.RunError{Kind: bench.ErrPanic, Workload: name, Msg: fmt.Sprint(p)}
			}
		}()
		iter()
		return nil
	}
}

// sweep calls every part once and returns the first failure.
func (r *kernelsRun) sweep(ph *phase, op int) error {
	region := opRegion(op)
	var first error
	t0 := time.Now()
	for _, p := range r.parts {
		err := p.err
		if err == nil {
			sp := begin()
			t := time.Now()
			err = p.call()
			ph.part(p.name, time.Since(t))
			sp.end(p.layer, p.name, region, tidMain)
		}
		if err != nil && first == nil {
			first = err
		}
	}
	ph.lat = append(ph.lat, ms(time.Since(t0)))
	if first != nil {
		ph.failed++
	} else {
		ph.ok++
	}
	return first
}

func (r *kernelsRun) measure(ph *phase, deadline time.Time, maxOps int) {
	for op := 0; time.Now().Before(deadline) && (maxOps == 0 || op < maxOps); op++ {
		r.sweep(ph, op)
	}
}

func (r *kernelsRun) finish(*phase) {}

func (r *kernelsRun) layers(ph *phase, out map[string]float64) {
	for _, p := range r.parts {
		out[p.metric] = ph.partMedian(p.name) * p.scale
	}
	// Allocations are counted on one more, untimed call of each kernel.
	// ReadMemStats stops the world and flushes every P's allocation
	// counts, so each call is charged with exactly what it allocated.
	type count struct{ objects, calls uint64 }
	per := map[string]count{}
	var m runtime.MemStats
	for _, p := range r.parts {
		if !p.suite || p.err != nil {
			continue
		}
		runtime.ReadMemStats(&m)
		before := m.Mallocs
		_ = p.call() // a failing call is counted by the timed sweeps
		runtime.ReadMemStats(&m)
		c := per[p.layer]
		per[p.layer] = count{c.objects + m.Mallocs - before, c.calls + 1}
	}
	for suite, c := range per {
		out[suite+".allocs_per_iter"] = float64(c.objects) / float64(c.calls)
	}
}

func (r *kernelsRun) probe(map[string]float64) probeResult { return probeResult{} }

func (r *kernelsRun) close() {}

// probeParts builds the sve, omp and mpi probes on seeded inputs. Each
// checks its own output and reports a wrong one as an error.
func probeParts(seed int64) []kernelPart {
	rng := rand.New(rand.NewSource(seed))
	vec := func() []float64 {
		v := make([]float64, sveElems)
		for i := range v {
			v[i] = 0.5 + rng.Float64()
		}
		return v
	}
	a, b, c, dst := vec(), vec(), vec(), make([]float64, sveElems)
	idx := make([]int64, sveElems)
	for i, j := range rng.Perm(sveElems) {
		idx[i] = int64(j)
	}
	k := rng.Intn(sveElems) // the element each probe checks
	const s = 1.5
	perElem := 1e6 / float64(sveElems*sveReps) // ms per call -> ns per element
	check := func(name string, got, want float64) error {
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("%s: element %d = %v, want %v", name, k, got, want)
		}
		return nil
	}
	sveOp := func(name string, op func(), got func() float64, want float64) kernelPart {
		return kernelPart{name: "sve/" + name, layer: "sve", metric: "sve." + name + "_ns_per_elem", scale: perElem,
			call: func() error {
				for rep := 0; rep < sveReps; rep++ {
					op()
				}
				return check("sve "+name, got(), want)
			}}
	}
	at := func() float64 { return dst[k] }
	parts := []kernelPart{
		sveOp("triad", func() { sve.TriadSlices(dst, a, s, b) }, at, a[k]+s*b[k]),
		sveOp("fma", func() { sve.FMASlices(dst, c, a, b) }, at, math.FMA(a[k], b[k], c[k])),
		sveOp("gather", func() { sve.GatherSlices(dst, a, idx) }, at, a[idx[k]]),
		sveOp("scatter", func() { sve.ScatterSlices(dst, b, idx) }, func() float64 { return dst[idx[k]] }, b[k]),
		sveOp("sqrt", func() { sve.SqrtSlices(dst, c) }, at, math.Sqrt(c[k])),
	}

	team := omp.NewTeam(ompThreads)
	xs := make([]float64, ompForN)
	parts = append(parts,
		kernelPart{name: "omp/parallel_region", layer: "omp", metric: "omp.parallel_region_us", scale: 1e3 / ompReps,
			call: func() error {
				var n atomic.Int64
				for rep := 0; rep < ompReps; rep++ {
					team.Parallel(func(int) { n.Add(1) })
				}
				if n.Load() != ompReps*ompThreads {
					return fmt.Errorf("omp parallel: %d thread runs, want %d", n.Load(), ompReps*ompThreads)
				}
				return nil
			}},
		kernelPart{name: "omp/barrier", layer: "omp", metric: "omp.barrier_us", scale: 1e3 / ompReps,
			call: func() error {
				bar := omp.NewBarrier(ompThreads)
				var n atomic.Int64
				team.Parallel(func(int) {
					for rep := 0; rep < ompReps; rep++ {
						bar.Wait()
						n.Add(1)
					}
				})
				if n.Load() != ompReps*ompThreads {
					return fmt.Errorf("omp barrier: %d passes, want %d", n.Load(), ompReps*ompThreads)
				}
				return nil
			}},
		kernelPart{name: "omp/for_dynamic", layer: "omp", metric: "omp.for_dynamic_us", scale: 1e3,
			call: func() error {
				clear(xs)
				team.For(0, ompForN, omp.Dynamic, ompChunk, func(i int) { xs[i] = float64(i) + 0.5 })
				j := k % ompForN
				return check("omp for", xs[j], float64(j)+0.5)
			}},
	)

	hplSeed := uint64(seed)
	x := make([]complex128, fftRows*fftCols)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := append([]complex128(nil), x...)
	plan, err := fft.NewPlan(len(want))
	if err == nil {
		err = plan.Transform(nil, want)
	}
	fftErr := err
	parts = append(parts,
		kernelPart{name: "mpi/disthpl", layer: "mpi", metric: "mpi.disthpl_ms", scale: 1,
			call: func() error {
				resid, _, err := mpi.DistHPL(mpiRanks, hplN, hplSeed)
				if err != nil {
					return err
				}
				if !(resid <= hplMaxRes) {
					return fmt.Errorf("mpi DistHPL: scaled residual %v above %d", resid, hplMaxRes)
				}
				return nil
			}},
		kernelPart{name: "mpi/distfft", layer: "mpi", metric: "mpi.distfft_ms", scale: 1,
			call: func() error {
				if fftErr != nil {
					return fftErr
				}
				got, _, err := mpi.DistFFT(mpiRanks, x, fftRows, fftCols)
				if err != nil {
					return err
				}
				for i := range got {
					if d := cmplx.Abs(got[i] - want[i]); !(d <= fftMaxErr) {
						return fmt.Errorf("mpi DistFFT: element %d off by %v", i, d)
					}
				}
				return nil
			}},
	)
	return parts
}
