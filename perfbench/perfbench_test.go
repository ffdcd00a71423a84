package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"ookami/internal/trace"
)

// The benchmark runs from the repository root: it reads results/ and
// BENCHMARK.json there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func hotKeys(t *testing.T, seq []uint16) []string {
	t.Helper()
	points := hotSpace()
	keys := make([]string, len(seq))
	for i, p := range seq {
		k, err := points[p].Key()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

func keySet(keys []string) []string {
	s := slices.Clone(keys)
	slices.Sort(s)
	return slices.Compact(s)
}

func TestSeedDeterminesInputs(t *testing.T) {
	if n := len(hotSpace()); n != 255 {
		t.Fatalf("served space has %d points, want 255", n)
	}
	const n = 64
	a := hotKeys(t, hotSequence(1, 255, n))
	b := hotKeys(t, hotSequence(1, 255, n))
	c := hotKeys(t, hotSequence(2, 255, n))
	if !slices.Equal(a, b) {
		t.Error("serve-hot: the same seed gave different request sequences")
	}
	if slices.Equal(a, c) || slices.Equal(keySet(a), keySet(c)) {
		t.Error("serve-hot: a different seed gave the same requests or key set")
	}

	if !slices.Equal(seededOrder(1, 39), seededOrder(1, 39)) {
		t.Error("kernels: the same seed gave different sweep orders")
	}
	if slices.Equal(seededOrder(1, 39), seededOrder(2, 39)) {
		t.Error("kernels: a different seed gave the same sweep order")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// defsOf renders metric definitions as sorted "name unit" lines.
func defsOf(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	slices.Sort(out)
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if got, want := defsOf(endToEnd), defsOf(e2e); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics:\n program %v\n BENCHMARK.json %v", got, want)
	}
	if got, want := defsOf(perLayer()), defsOf(layer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics:\n program %v\n BENCHMARK.json %v", got, want)
	}
	for _, d := range append(endToEnd, perLayer()...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads: program %v, BENCHMARK.json %v", names, listed)
	}
}

// TestShortRuns runs every workload briefly, untraced and traced: each
// prints exactly its metric set, and nothing fails.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "trace.json")
				res, err := run(config{workload: w.name, seed: 3, seconds: 1, traced: traced, traceOut: out}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced {
					want = perLayer()
				}
				var got []metricDef
				for name, v := range res.Metrics {
					got = append(got, metricDef{name, v.Unit})
				}
				if !slices.Equal(defsOf(got), defsOf(want)) {
					t.Errorf("printed metrics differ from the declared set")
				}
				if traced {
					tr, err := trace.LoadFile(out)
					if err != nil {
						t.Fatal(err)
					}
					if len(tr.Events) == 0 {
						t.Error("the trace file holds no events")
					}
				}
			})
		}
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(cat, region string, ts, dur int64) trace.Event {
		return trace.Event{Ph: trace.PhaseSpan, Cat: cat, Region: region, TS: ts, Dur: dur}
	}
	evs := []trace.Event{
		span("client", "pb#op1", 0, 100),
		span("serve", "pb#op1", 10, 60),
		span("client", "pb#op2", 20, 100), // concurrent operation: not a child of op1
		span("serve", "pb#op2", 30, 50),
		span("npb", "pb#op3", 200, 100),
		span("omp", "for#1", 210, 40), // a runtime span under a benchmark span
		span("omp", "for#2", 230, 40), // overlaps the first: covered once
	}
	got := selfTimes(evs)
	want := map[string]selfStat{
		"client": {selfNS: 40 + 50, spans: 2},
		"serve":  {selfNS: 60 + 50, spans: 2},
		"npb":    {selfNS: 40, spans: 1},
		"omp":    {selfNS: 80, spans: 2},
	}
	for cat, w := range want {
		if got[cat] != w {
			t.Errorf("%s: got %+v, want %+v", cat, got[cat], w)
		}
	}
}

// TestClientRecSamplesUniformly: past its capacity a client record keeps
// every stride-th request, the stride doubling each time it fills, and
// its memory never grows.
func TestClientRecSamplesUniformly(t *testing.T) {
	rec := newClientRec()
	n := 3*recCap + 5
	for i := 0; i < n; i++ {
		rec.record(float64(i), uint16(i%255))
	}
	if cap(rec.lat) != recCap || cap(rec.point) != recCap {
		t.Fatalf("record grew to %d/%d samples, cap %d", cap(rec.lat), cap(rec.point), recCap)
	}
	if rec.stride != 4 || len(rec.lat) != (n+3)/4 {
		t.Fatalf("stride %d with %d samples, want 4 with %d", rec.stride, len(rec.lat), (n+3)/4)
	}
	for k, v := range rec.lat {
		if i := k * rec.stride; int(v) != i || int(rec.point[k]) != i%255 {
			t.Fatalf("sample %d is request %v (point %d), want %d", k, v, rec.point[k], i)
		}
	}
}
