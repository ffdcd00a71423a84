package explain

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/roofline"
	"ookami/internal/toolchain"
)

// kernelNames lists every kernel a request can name: the loops in
// figure order, then the NPB applications.
func kernelNames() []string {
	var out []string
	for _, l := range AllLoops {
		out = append(out, l.String())
	}
	return append(out, npb.SuiteNames()...)
}

// answer renders predict's answer to req for comparison: the JSON body
// of a prediction, or the error's dynamic type and message.
func answer(t *testing.T, predict func(Request) (Prediction, error), req Request) string {
	t.Helper()
	p, err := predict(req)
	if err != nil {
		return fmt.Sprintf("error %T: %s", err, err)
	}
	body, merr := json.Marshal(p)
	if merr != nil {
		t.Fatal(merr)
	}
	return string(body)
}

// A table answers with the bytes of the direct call, or with the same
// typed error and message. The space covers every toolchain on every
// machine it targets, machines without an instruction-level profile
// included (the request fails to resolve there, and the table built for
// that pair must fail the same way), at 1, 2 and all cores, at the
// default and one other element count, and with the machine left to the
// toolchain's default.
func TestPairPricesMatchPredictBytes(t *testing.T) {
	answered := 0
	for _, tc := range toolchain.All {
		for _, m := range machine.All {
			if !tc.Supports(m) {
				continue
			}
			table := PricePair(tc, m)
			for _, kernel := range kernelNames() {
				for _, threads := range []int{1, 2, m.Cores} {
					for _, elems := range []int{0, 3000} {
						reqs := []Request{{Kernel: kernel, Toolchain: tc.Name, Machine: m.Name, Threads: threads, Elems: elems}}
						if DefaultMachine(tc).Name == m.Name {
							reqs = append(reqs, Request{Kernel: kernel, Toolchain: tc.Name, Threads: threads, Elems: elems})
						}
						for _, req := range reqs {
							want := answer(t, Predict, req)
							got := answer(t, table.Predict, req)
							if got != want {
								t.Fatalf("%+v:\ntable:  %s\ndirect: %s", req, got, want)
							}
							if want[0] == '{' {
								answered++
							}
						}
					}
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("no request was answered")
	}
}

// The invalid requests keep their typed errors and messages through a
// table, which is what holds the server's 400 and 404 bodies.
func TestPairPricesErrorsMatchPredict(t *testing.T) {
	table := PricePair(toolchain.GNU, machine.A64FX)
	for _, req := range []Request{
		{Kernel: "nope", Toolchain: "GNU"},
		{Kernel: "exp", Toolchain: "nope"},
		{Kernel: "exp", Toolchain: "GNU", Machine: "nope"},
		{Kernel: "exp", Toolchain: "Intel", Machine: "Ookami"},
		{Kernel: "exp", Toolchain: "GNU", Threads: -1},
		{Kernel: "exp", Toolchain: "GNU", Elems: -1},
		{Kernel: "exp", Toolchain: "GNU", Machine: machine.ThunderX2.Name},
	} {
		_, want := Predict(req)
		_, got := table.Predict(req)
		if want == nil || got == nil || reflect.TypeOf(got) != reflect.TypeOf(want) || got.Error() != want.Error() {
			t.Errorf("%+v: table error %T %v, direct error %T %v", req, got, got, want, want)
		}
	}
}

// A table answers only for its own pair.
func TestPairPricesRejectOtherPair(t *testing.T) {
	table := PricePair(toolchain.GNU, machine.A64FX)
	if _, err := table.Predict(Request{Kernel: "exp", Toolchain: "Fujitsu"}); err == nil {
		t.Error("a GNU table answered a Fujitsu request")
	}
}

// An answer handed out by a table does not share its report or its
// breakdown with the table.
func TestPairPricesAnswersAreCopies(t *testing.T) {
	table := PricePair(toolchain.Fujitsu, machine.A64FX)
	req := Request{Kernel: "exp", Toolchain: "Fujitsu"}
	p, err := table.Predict(req)
	if err != nil {
		t.Fatal(err)
	}
	p.Report[0] = "edited"
	p.Breakdown.CyclesPerIter = -1
	got := answer(t, table.Predict, req)
	if want := answer(t, Predict, req); got != want {
		t.Errorf("editing an answer edited the table:\n got: %s\nwant: %s", got, want)
	}
}

type pair struct {
	tc toolchain.Toolchain
	m  machine.Machine
}

// resolvedPairs are the (toolchain, machine) pairs a request can resolve
// to: every toolchain on every profiled machine it targets.
func resolvedPairs() []pair {
	var out []pair
	for _, tc := range toolchain.All {
		for _, m := range profiledMachines {
			if tc.Supports(m) {
				out = append(out, pair{tc, m})
			}
		}
	}
	return out
}

// The model is total over its resolved space: 7 pairs × (11 loops + 6
// apps) × threads 1..cores, 5,236 points. At every point the answer is
// finite and positive, its parts combine to its total, its roofline
// point lies on or under the machine's roof, its predicted rate lies
// under the roof at its intensity, and a second pass from fresh tables
// gives the same bytes.
func TestModelTotalOverResolvedSpace(t *testing.T) {
	pass := func() [][]byte {
		var out [][]byte
		for _, pr := range resolvedPairs() {
			tc, m := pr.tc, pr.m
			table := PricePair(tc, m)
			for _, kernel := range kernelNames() {
				for threads := 1; threads <= m.Cores; threads++ {
					req := Request{Kernel: kernel, Toolchain: tc.Name, Machine: m.Name, Threads: threads}
					p, err := table.Predict(req)
					if err != nil {
						t.Fatalf("%+v: %v", req, err)
					}
					checkTotal(t, req, m, p)
					body, err := json.Marshal(p)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, body)
				}
			}
		}
		return out
	}
	first := pass()
	if len(first) != 5236 {
		t.Errorf("resolved space has %d points, want 5236", len(first))
	}
	second := pass()
	for i := range first {
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("point %d: second pass differs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// partsTolerance bounds the relative gap between an app's total and the
// overlap rule applied to its parts. AppTime multiplies the combined
// total and each part by the irregular-loop penalty, so the two differ
// by rounding: a few ulps, far under 1e-14.
const partsTolerance = 1e-14

// checkTotal checks one point's internal consistency.
func checkTotal(t *testing.T, req Request, m machine.Machine, p Prediction) {
	t.Helper()
	rt := p.RuntimeSeconds
	if math.IsNaN(rt) || math.IsInf(rt, 0) || rt <= 0 {
		t.Fatalf("%+v: runtime %v", req, rt)
	}
	for _, part := range []float64{p.Parts.Serial, p.Parts.Parallel, p.Parts.Memory, p.Parts.Sync} {
		if math.IsNaN(part) || math.IsInf(part, 0) || part < 0 {
			t.Fatalf("%+v: part %v in %+v", req, part, p.Parts)
		}
	}
	total := p.Parts.Total()
	switch {
	case p.Kind == "loop" && total != rt:
		t.Fatalf("%+v: parts total %v != runtime %v", req, total, rt)
	case math.Abs(total-rt) > partsTolerance*rt:
		t.Fatalf("%+v: parts total %v vs runtime %v (rel %v)", req, total, rt, math.Abs(total-rt)/rt)
	}
	pt := p.Roofline
	roof := roofline.Attainable(m, pt.IntensityFlopB)
	if pt.IntensityFlopB < 0 || pt.AttainableGFLOPS > roof {
		t.Fatalf("%+v: roofline point %+v above its roof %v", req, pt, roof)
	}
	flops := flopsOf(req, p)
	if rate := flops / rt / 1e9; rate > roof*(1+1e-12) {
		t.Fatalf("%+v: predicted %v GFLOP/s above the roof %v at intensity %v", req, rate, roof, pt.IntensityFlopB)
	}
}

// flopsOf is the flop count behind a prediction: the traffic table's
// per-element flops for a loop, the class C characterization for an app.
func flopsOf(req Request, p Prediction) float64 {
	if l, ok := FindLoop(req.Kernel); ok {
		return trafficFor(l).flops * float64(p.Elems)
	}
	st, _ := npb.StatsByName(p.Kernel, npb.ClassC)
	return st.Flops
}
