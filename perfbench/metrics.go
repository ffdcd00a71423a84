package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"ookami/internal/bench"
	"ookami/internal/figures"
	"ookami/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run prints. Every workload
// reports all of them; an "operation" is one cold figure pass, one
// kernel sweep, or one /v1/predict round trip.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"part_geomean_ms", "ms"},
	{"mem_peak_mb", "MB"},
}

// probeMetrics are the fixed per-layer names that do not derive from a
// registry. Kernel, figure and self-time names are appended by
// perLayer.
var probeMetrics = []metricDef{
	{"sve.triad_ns_per_elem", "ns"},
	{"sve.fma_ns_per_elem", "ns"},
	{"sve.gather_ns_per_elem", "ns"},
	{"sve.scatter_ns_per_elem", "ns"},
	{"sve.sqrt_ns_per_elem", "ns"},
	{"omp.parallel_region_us", "us"},
	{"omp.barrier_us", "us"},
	{"omp.for_dynamic_us", "us"},
	{"mpi.disthpl_ms", "ms"},
	{"mpi.distfft_ms", "ms"},
	{"figures.warm_pass_s", "s"},
	{"parexec.hits", "count"},
	{"parexec.misses", "count"},
	{"parexec.hit_ratio", "ratio"},
	{"parexec.evictions", "count"},
	{"toolchain.compile_us", "us"},
	{"perfmodel.schedule_us", "us"},
	{"explain.key_us", "us"},
	{"explain.predict_us", "us"},
	{"explain.encode_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.resp_bytes", "bytes"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cycles", "count"},
	{"trace.dropped", "count"},
	{"trace.overhead_pct", "%"},
}

// modelLayers are the span categories above the kernels; the kernel
// suites and the runtimes follow them in the self-time list.
var modelLayers = []string{"figures", "parexec", "toolchain", "perfmodel", "explain", "serve", "client"}

// suites returns the kernel suites of the bench registry, sorted.
func suites() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range bench.All() {
		s, _, _ := strings.Cut(w.Name, "/")
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// spanLayers lists every span category a traced run reports self time
// for.
func spanLayers() []string {
	out := append([]string{}, modelLayers...)
	out = append(out, suites()...)
	return append(out, "sve", "omp", "mpi")
}

// kernelMetric maps a registry name such as "npb/ep-s" to its per-layer
// metric name, "npb.ep-s_us".
func kernelMetric(name string) string {
	return strings.ReplaceAll(name, "/", ".") + "_us"
}

// perLayer lists every metric a traced run prints, in a fixed order.
func perLayer() []metricDef {
	out := append([]metricDef{}, probeMetrics...)
	for _, w := range bench.All() {
		out = append(out, metricDef{kernelMetric(w.Name), "us"})
	}
	for _, s := range suites() {
		out = append(out, metricDef{s + ".allocs_per_iter", "count"})
	}
	for _, it := range figureItems() {
		out = append(out, metricDef{"figures." + it.ID + "_ms", "ms"})
	}
	for _, l := range spanLayers() {
		out = append(out, metricDef{"self." + l + "_us", "us"})
	}
	return out
}

// figureItems is the full artifact list of one figure run: the paper's
// figures and tables followed by the extras (21 artifacts).
func figureItems() []figures.Item {
	return append(figures.All(), figures.Extras()...)
}

// phase collects the samples of one timed stretch of operations.
type phase struct {
	lat     []float64            // wall time per operation, ms
	parts   map[string][]float64 // wall time per call of each part, ms
	ok      int                  // operations that completed correctly
	failed  int                  // operations that failed a check
	elapsed float64              // s
	allocs  uint64               // heap objects allocated during the phase
	gcs     uint64               // GC cycles completed during the phase
	memPeak float64              // peak live heap, MB
}

func newPhase() *phase { return &phase{parts: map[string][]float64{}} }

func (p *phase) attempted() int { return p.ok + p.failed }

// part records one call of a named part.
func (p *phase) part(name string, d time.Duration) {
	p.parts[name] = append(p.parts[name], ms(d))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// partMedian is the median call time of a part in ms, 0 if never called.
func (p *phase) partMedian(name string) float64 { return stats.Median(p.parts[name]) }

// runtimeSamples are the runtime/metrics counters a phase reads.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() (allocs, gcs uint64, liveMB float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), float64(s[2].Value.Uint64()) / 1e6
}

// memSampler polls the live heap until stopped and keeps the peak.
type memSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak float64
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	_, _, m.peak = readRuntime()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				_, _, mb := readRuntime()
				m.peak = math.Max(m.peak, mb)
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak, including a last read.
func (m *memSampler) finish() float64 {
	close(m.stop)
	m.done.Wait()
	_, _, mb := readRuntime()
	return math.Max(m.peak, mb)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile (at most the 99th) that has at least
// ten samples beyond it: with n samples, the value that max(10, n/100)
// samples exceed.
func tail(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	beyond := max(10, (n+99)/100)
	if beyond >= n {
		return s[n-1]
	}
	return s[n-1-beyond]
}

// partGeomean is the geometric mean over parts of each part's median.
func (p *phase) partGeomean() float64 {
	meds := make([]float64, 0, len(p.parts))
	for _, xs := range p.parts {
		meds = append(meds, stats.Median(xs))
	}
	return stats.GeoMean(meds)
}
