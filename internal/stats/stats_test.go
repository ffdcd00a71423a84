package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad summary %+v", s)
	}
	if !almost(s.Mean, 2.5, 1e-12) {
		t.Errorf("mean = %v", s.Mean)
	}
	// sample stddev of 1..4 is sqrt(5/3)
	if !almost(s.Stddev, math.Sqrt(5.0/3.0), 1e-12) {
		t.Errorf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	// Empty input must not masquerade as a measured zero.
	if s := Summarize(nil); s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Min) || !math.IsNaN(s.Max) || !math.IsNaN(s.Stddev) {
		t.Errorf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Stddev != 0 {
		t.Errorf("single summary %+v", s)
	}
}

func TestSummarizeNaNContamination(t *testing.T) {
	s := Summarize([]float64{1, math.NaN(), 3})
	if s.N != 3 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Min) || !math.IsNaN(s.Max) || !math.IsNaN(s.Stddev) {
		t.Errorf("NaN-contaminated summary should be all-NaN, got %+v", s)
	}
}

func TestCoV(t *testing.T) {
	if c := CoV([]float64{2, 2, 2}); c != 0 {
		t.Errorf("CoV of constant sample = %v", c)
	}
	// mean 3, sample stddev 1 -> CoV 1/3.
	if c := CoV([]float64{2, 3, 4}); !almost(c, 1.0/3.0, 1e-12) {
		t.Errorf("CoV = %v", c)
	}
	if c := CoV(nil); !math.IsNaN(c) {
		t.Errorf("CoV of empty = %v", c)
	}
	if c := CoV([]float64{0, 0}); !math.IsNaN(c) {
		t.Errorf("CoV with zero mean = %v", c)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 4 {
		t.Errorf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); !almost(p, 2.5, 1e-12) {
		t.Errorf("p50 = %v", p)
	}
	if xs[0] != 4 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
	if p := Percentile(nil, 50); !math.IsNaN(p) {
		t.Errorf("empty percentile = %v", p)
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := []float64{10, 11, 9, 10.5, 9.5, 10, 10.2, 9.8}
	lo, hi := BootstrapCI(xs, Median, 0.95, 500, 1)
	if !(lo <= hi) {
		t.Fatalf("inverted CI [%v, %v]", lo, hi)
	}
	if lo < 9 || hi > 11 {
		t.Errorf("CI [%v, %v] outside sample range", lo, hi)
	}
	m := Median(xs)
	if m < lo || m > hi {
		t.Errorf("median %v outside CI [%v, %v]", m, lo, hi)
	}
	// Determinism: same seed, same interval.
	lo2, hi2 := BootstrapCI(xs, Median, 0.95, 500, 1)
	if lo != lo2 || hi != hi2 {
		t.Errorf("bootstrap not deterministic: [%v,%v] vs [%v,%v]", lo, hi, lo2, hi2)
	}
	if l, h := BootstrapCI(nil, Median, 0.95, 10, 1); !math.IsNaN(l) || !math.IsNaN(h) {
		t.Errorf("empty CI = [%v, %v]", l, h)
	}
	if l, h := BootstrapCI([]float64{5}, Median, 0.95, 10, 1); l != 5 || h != 5 {
		t.Errorf("single-sample CI = [%v, %v]", l, h)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); !almost(g, 2, 1e-12) {
		t.Errorf("geomean = %v", g)
	}
	if g := GeoMean([]float64{2, -1}); !math.IsNaN(g) {
		t.Errorf("geomean of negative should be NaN, got %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean of empty = %v", g)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	// Median must not mutate its argument.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median mutated input: %v", xs)
	}
}

func TestEfficiency(t *testing.T) {
	// Perfect scaling: t(p) = t1/p -> efficiency 1 everywhere.
	th := []int{1, 2, 4}
	eff := Efficiency(th, []float64{8, 4, 2})
	for i, e := range eff {
		if !almost(e, 1, 1e-12) {
			t.Errorf("eff[%d] = %v", i, e)
		}
	}
	// No scaling: t(p) = t1 -> efficiency 1/p.
	eff = Efficiency(th, []float64{8, 8, 8})
	want := []float64{1, 0.5, 0.25}
	for i := range eff {
		if !almost(eff[i], want[i], 1e-12) {
			t.Errorf("flat eff[%d] = %v want %v", i, eff[i], want[i])
		}
	}
}

func TestEfficiencyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	Efficiency([]int{1, 2}, []float64{1})
}

func TestWithinFactor(t *testing.T) {
	cases := []struct {
		got, want, f float64
		ok           bool
	}{
		{2.0, 2.0, 1.0, true},
		{2.9, 2.0, 1.5, true},
		{3.1, 2.0, 1.5, false},
		{1.4, 2.0, 1.5, true},
		{1.2, 2.0, 1.5, false},
		{2.0, 2.0, 0.5, true}, // factor < 1 is inverted
		{0, 0, 2, true},
		{1, 0, 2, false},
	}
	for _, c := range cases {
		if got := WithinFactor(c.got, c.want, c.f); got != c.ok {
			t.Errorf("WithinFactor(%v,%v,%v) = %v want %v", c.got, c.want, c.f, got, c.ok)
		}
	}
}

func TestWithinFactorSymmetryProperty(t *testing.T) {
	// Property: WithinFactor(a, b, f) == WithinFactor(b, a, f) for positive a,b.
	f := func(a, b float64) bool {
		a = math.Abs(a) + 0.001
		b = math.Abs(b) + 0.001
		return WithinFactor(a, b, 3) == WithinFactor(b, a, 3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	// Property: min <= mean <= max, and geomean <= mean for positive samples.
	f := func(xs []float64) bool {
		pos := make([]float64, 0, len(xs))
		for _, x := range xs {
			if v := math.Abs(x); v > 1e-6 && v < 1e6 {
				pos = append(pos, v)
			}
		}
		if len(pos) == 0 {
			return true
		}
		s := Summarize(pos)
		g := GeoMean(pos)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && g <= s.Mean*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "a", "b")
	tb.AddNumericRow("row1", 1.2345, 1234.5)
	tb.AddRow("row2", "x")
	s := tb.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "row1") {
		t.Errorf("ascii table missing content:\n%s", s)
	}
	if !strings.Contains(s, "1.23") {
		t.Errorf("expected 3-sig-digit 1.23 in:\n%s", s)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,a,b\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "row2,x,\n") {
		t.Errorf("csv should pad short rows: %q", csv)
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tb := NewTable("", "c")
	tb.AddRow(`has "quote", comma`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"has ""quote"", comma"`) {
		t.Errorf("csv quoting wrong: %q", csv)
	}
}

func TestTableCSVControlCharacters(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("line\nbreak", "carriage\rreturn")
	tb.AddRow("plain", "cells")
	csv := tb.CSV()
	if !strings.Contains(csv, "\"line\nbreak\"") {
		t.Errorf("LF cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, "\"carriage\rreturn\"") {
		t.Errorf("CR cell not quoted: %q", csv)
	}
	// The quoted control characters must not add records: header + 2 rows.
	if got := csvRecordCount(csv); got != 3 {
		t.Errorf("record count = %d, want 3 in %q", got, csv)
	}
}

// csvRecordCount counts RFC 4180 records, honoring quoted fields.
func csvRecordCount(s string) int {
	records, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case '\n':
			if !inQuote {
				records++
			}
		}
	}
	return records
}

func TestFormat3(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234:    "1234",
		56.78:   "56.8",
		2.345:   "2.35",
		0.06789: "0.0679",
	}
	for in, want := range cases {
		if got := Format3(in); got != want {
			t.Errorf("Format3(%v) = %q want %q", in, got, want)
		}
	}
}
