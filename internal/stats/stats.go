// Package stats provides the small statistical and series utilities used by
// the benchmark harnesses: summary statistics, bootstrap intervals,
// parallel efficiency, and text/CSV rendering of the tables and figures the
// paper reports.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Summary holds the usual summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
}

// Summarize computes summary statistics for xs. An empty sample and a
// sample containing NaN both yield NaN statistics (with N recording the
// input length): a zero Mean would read as a real measurement, which is
// exactly how a silently-broken benchmark harness fakes a speedup.
//
//ookami:pure
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{N: 0, Mean: nan, Stddev: nan, Min: nan, Max: nan}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		if math.IsNaN(x) {
			nan := math.NaN()
			return Summary{N: len(xs), Mean: nan, Stddev: nan, Min: nan, Max: nan}
		}
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values make the result NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Median returns the median of xs (average of the two central values for
// even-length samples).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return 0.5 * (ys[n/2-1] + ys[n/2])
}

// CoV returns the coefficient of variation stddev/|mean| — the
// run-to-run noise measure the benchmark runner gates on. It is NaN for
// empty or NaN-contaminated samples and for a zero mean, and 0 for a
// single-sample input (no spread information).
//
//ookami:pure
func CoV(xs []float64) float64 {
	s := Summarize(xs)
	if s.N == 0 || math.IsNaN(s.Mean) || s.Mean == 0 {
		return math.NaN()
	}
	return s.Stddev / math.Abs(s.Mean)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between order statistics, without mutating xs.
// It is NaN for empty input.
//
//ookami:pure sorts a private copy
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if p <= 0 {
		return ys[0]
	}
	if p >= 100 {
		return ys[len(ys)-1]
	}
	pos := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// BootstrapCI computes a percentile-bootstrap confidence interval for
// stat(xs) at confidence conf (e.g. 0.95) from iters resamples drawn
// with a deterministic generator seeded by seed, so repeated analyses
// of the same sample agree bit-for-bit. It returns (NaN, NaN) for an
// empty sample and the degenerate interval (x, x) for a single sample.
//
//ookami:pure resamples with an explicitly seeded generator; purity is conditional on the stat argument
func BootstrapCI(xs []float64, stat func([]float64) float64, conf float64, iters int, seed int64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 {
		v := stat(xs)
		return v, v
	}
	if iters <= 0 {
		iters = 1000
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	rng := rand.New(rand.NewSource(seed))
	resample := make([]float64, len(xs))
	vals := make([]float64, iters)
	for i := range vals {
		for j := range resample {
			resample[j] = xs[rng.Intn(len(xs))]
		}
		vals[i] = stat(resample)
	}
	alpha := (1 - conf) / 2
	return Percentile(vals, 100*alpha), Percentile(vals, 100*(1-alpha))
}

// Efficiency converts a runtime series t(p) indexed by thread counts into
// parallel efficiency t(1)/(p*t(p)). threads and times must be equal length
// and the first entry is taken as the single-thread reference.
func Efficiency(threads []int, times []float64) []float64 {
	if len(threads) != len(times) {
		panic("stats: threads/times length mismatch")
	}
	if len(times) == 0 {
		return nil
	}
	t1 := times[0] * float64(threads[0])
	out := make([]float64, len(times))
	for i := range times {
		out[i] = t1 / (float64(threads[i]) * times[i])
	}
	return out
}

// WithinFactor reports whether got is within factor f (>=1) of want, i.e.
// want/f <= got <= want*f. It is the assertion the figure shape-tests use.
func WithinFactor(got, want, f float64) bool {
	if f < 1 {
		f = 1 / f
	}
	if want == 0 {
		return got == 0
	}
	lo, hi := want/f, want*f
	if lo > hi {
		lo, hi = hi, lo
	}
	return got >= lo && got <= hi
}

// Format3 renders a float with three significant digits, the precision used
// in the rendered tables.
func Format3(x float64) string {
	ax := math.Abs(x)
	switch {
	case x == 0:
		return "0"
	case ax >= 100:
		return fmt.Sprintf("%.0f", x)
	case ax >= 10:
		return fmt.Sprintf("%.1f", x)
	case ax >= 1:
		return fmt.Sprintf("%.2f", x)
	case ax >= 0.001:
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%.2e", x)
	}
}
