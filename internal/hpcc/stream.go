package hpcc

import (
	"sync/atomic"
	"time"

	"ookami/internal/omp"
	"ookami/internal/rng"
	"ookami/internal/sve"
)

// wallTime measures the wall-clock duration of fn in seconds. This is
// the one place the package touches the clock: host measurements
// (RunStream, RunGUPS) report rates, not golden artifacts — the golden
// figures only consume the package's analytical models.
func wallTime(fn func()) float64 {
	t0 := time.Now() //ookami:nolint determinism -- host wall-clock measurement, not golden output
	fn()
	return time.Since(t0).Seconds()
}

// The remaining HPCC members the paper's bandwidth analysis leans on
// implicitly: STREAM (the sustained-bandwidth yardstick behind the
// "higher memory bandwidth" explanation of Figure 4) and RandomAccess
// (GUPS, the latency-bound pole that CG approximates). Both are real
// host kernels; the per-machine stream and random bandwidth they stand
// for is modelled once, by perfmodel.EffectiveBW.

// StreamResult reports one STREAM kernel's measured rate.
type StreamResult struct {
	Kernel   string
	Bytes    float64 // bytes moved per iteration
	GBs      float64 // measured GB/s on the host
	Checksum float64
}

// RunStream executes the four STREAM kernels (copy, scale, add, triad) on
// the host with the given team and array length, returning measured
// rates. The checksum guards against the compiler eliding the work.
func RunStream(team *omp.Team, n, reps int) []StreamResult {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1.0
		b[i] = 2.0
		c[i] = 0.0
	}
	const scalar = 3.0
	run := func(name string, bytes float64, body func()) StreamResult {
		t := wallTime(func() {
			for r := 0; r < reps; r++ {
				body() //ookami:nolint hotiface -- one dispatch per rep, amortized over the n-element kernel
			}
		})
		sum := 0.0
		for _, v := range c {
			sum += v
		}
		return StreamResult{
			Kernel: name, Bytes: bytes * float64(n),
			GBs:      bytes * float64(n) * float64(reps) / t / 1e9,
			Checksum: sum,
		}
	}
	results := []StreamResult{
		run("copy", 16, func() {
			team.ForRange(0, n, omp.Static, 0, func(lo, hi int) {
				copy(c[lo:hi], a[lo:hi])
			})
		}),
		run("scale", 16, func() {
			team.ForRange(0, n, omp.Static, 0, func(lo, hi int) {
				sve.ScaleSlices(b[lo:hi], c[lo:hi], scalar)
			})
		}),
		run("add", 24, func() {
			team.ForRange(0, n, omp.Static, 0, func(lo, hi int) {
				sve.AddSlices(c[lo:hi], a[lo:hi], b[lo:hi])
			})
		}),
		run("triad", 24, func() {
			team.ForRange(0, n, omp.Static, 0, func(lo, hi int) {
				sve.TriadSlices(a[lo:hi], b[lo:hi], scalar, c[lo:hi])
			})
		}),
	}
	return results
}

// GUPSResult reports a RandomAccess run.
type GUPSResult struct {
	TableWords int
	Updates    int
	GUPS       float64 // giga-updates per second (host measurement)
	ErrorFrac  float64 // fraction of table entries wrong after replay
}

// RunGUPS executes the HPCC RandomAccess kernel on the host: a table of
// 2^logSize words receives `updates` xor-updates at LCG-derived random
// locations. The reference HPCC kernel races its read-modify-writes and
// tolerates up to 1% lost updates; this implementation uses a CAS loop
// instead (a data race is undefined behaviour in Go), so verification —
// replaying the xor stream serially must restore the initial table — is
// exact.
func RunGUPS(team *omp.Team, logSize, updates int) GUPSResult {
	size := 1 << logSize
	mask := uint64(size - 1)
	table := make([]uint64, size)
	for i := range table {
		table[i] = uint64(i)
	}
	src := rng.SplitMix64{Seed: 0x123456789}
	t := wallTime(func() {
		team.ForRange(0, updates, omp.Static, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r := src.Uint64(uint64(i))
				slot := &table[r&mask]
				for {
					old := atomic.LoadUint64(slot)
					if atomic.CompareAndSwapUint64(slot, old, old^r) {
						break
					}
				}
			}
		})
	})
	// Replay serially: xor cancels, table must return to identity.
	for i := 0; i < updates; i++ {
		r := src.Uint64(uint64(i))
		table[r&mask] ^= r
	}
	wrong := 0
	for i := range table {
		if table[i] != uint64(i) {
			wrong++
		}
	}
	return GUPSResult{
		TableWords: size,
		Updates:    updates,
		GUPS:       float64(updates) / t / 1e9,
		ErrorFrac:  float64(wrong) / float64(size),
	}
}
