package explain

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ookami/internal/machine"
	"ookami/internal/npb"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

func TestExplainScalarFallback(t *testing.T) {
	r, err := Explain(toolchain.GNU, toolchain.LoopExp, machine.A64FX)
	if err != nil {
		t.Fatal(err)
	}
	if r.Vectorized || r.Breakdown != nil {
		t.Errorf("GNU exp should stay scalar, got vectorized=%v breakdown=%v", r.Vectorized, r.Breakdown)
	}
	if r.SerialCyclesPerElem != 32 {
		t.Errorf("GNU exp serial cost = %v, want the paper's 32 cycles", r.SerialCyclesPerElem)
	}
}

func TestExplainRejectsBadCombination(t *testing.T) {
	if _, err := Explain(toolchain.Intel, toolchain.LoopSimple, machine.A64FX); err == nil {
		t.Error("Intel on A64FX: want error, got nil")
	}
}

// ExecFor is the one application-pricing path: the serve API prices the
// math loops by direct compiles, the figures by engine-memoized queries.
func TestExecForMatchesDirectDerivation(t *testing.T) {
	for _, tc := range toolchain.OnA64FX {
		e := ExecFor(tc, machine.A64FX, 0.8, MathCost(machine.A64FX, compiledCycles(tc, machine.A64FX)))
		if e.CyclesPerFlop <= 0 || math.IsNaN(e.CyclesPerFlop) {
			t.Errorf("%s: bad CyclesPerFlop %v", tc.Name, e.CyclesPerFlop)
		}
		if e.Placement != tc.Placement {
			t.Errorf("%s: placement %v, want %v", tc.Name, e.Placement, tc.Placement)
		}
		mc := MathCost(machine.A64FX, compiledCycles(tc, machine.A64FX))
		if len(mc) != 6 {
			t.Errorf("%s: math cost has %d entries, want 6", tc.Name, len(mc))
		}
		for fn, c := range mc {
			if c <= 0 || math.IsNaN(c) {
				t.Errorf("%s: %s costs %v", tc.Name, fn, c)
			}
		}
	}
}

func TestPredictLoopShape(t *testing.T) {
	p, err := Predict(Request{Kernel: "exp", Toolchain: "Fujitsu"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != "loop" || p.Kernel != "exp" || p.Machine != machine.A64FX.Name {
		t.Errorf("unexpected identity: %+v", p)
	}
	if p.Threads != 1 || p.Elems != DefaultElems {
		t.Errorf("defaults not applied: threads=%d elems=%d", p.Threads, p.Elems)
	}
	if p.RuntimeSeconds <= 0 || p.CyclesPerElement <= 0 {
		t.Errorf("non-positive prediction: %+v", p)
	}
	if p.Breakdown == nil || len(p.Report) == 0 {
		t.Error("vectorized loop should carry breakdown and compile report")
	}
	if p.Bound != "compute" && p.Bound != "memory" {
		t.Errorf("bad bound %q", p.Bound)
	}
	if got := p.Parts.Total(); math.Abs(got-p.RuntimeSeconds) > 1e-15 {
		t.Errorf("parts total %v != runtime %v", got, p.RuntimeSeconds)
	}
}

// More threads must never predict slower on a data-parallel loop, and the
// memory term must eventually dominate a streaming kernel.
func TestPredictLoopThreadScaling(t *testing.T) {
	prev := math.Inf(1)
	for _, threads := range []int{1, 4, 12, 48} {
		p, err := Predict(Request{Kernel: "simple", Toolchain: "GNU", Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if p.RuntimeSeconds > prev*(1+1e-12) {
			t.Errorf("threads=%d: runtime %v got slower than %v", threads, p.RuntimeSeconds, prev)
		}
		prev = p.RuntimeSeconds
	}
	p, _ := Predict(Request{Kernel: "simple", Toolchain: "GNU", Threads: 48})
	if p.Bound != "memory" {
		t.Errorf("48-thread stream triad should be memory-bound, got %q", p.Bound)
	}
}

// Thread counts beyond the node clamp to the core count (NodeTime's rule).
func TestPredictClampsThreads(t *testing.T) {
	a, err := Predict(Request{Kernel: "CG", Toolchain: "GNU", Threads: 48})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(Request{Kernel: "CG", Toolchain: "GNU", Threads: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeSeconds != b.RuntimeSeconds || b.Threads != 48 {
		t.Errorf("500 threads should clamp to 48: %+v vs %+v", a, b)
	}
}

func TestPredictAppShape(t *testing.T) {
	// (The exact equivalence with the figures pipeline — NPBTime — is
	// pinned from the figures side, where importing both packages is
	// cycle-free: see figures.TestNPBTimeMatchesExplainPredict.)
	for _, kernel := range []string{"BT", "CG", "EP", "LU", "SP", "UA"} {
		for _, threads := range []int{1, 48} {
			p, err := Predict(Request{Kernel: kernel, Toolchain: "Fujitsu", Threads: threads})
			if err != nil {
				t.Fatalf("%s: %v", kernel, err)
			}
			if p.RuntimeSeconds <= 0 || math.IsNaN(p.RuntimeSeconds) {
				t.Errorf("%s threads=%d: bad runtime %v", kernel, threads, p.RuntimeSeconds)
			}
			if p.Class != "C" || p.Kind != "app" {
				t.Errorf("%s: identity %+v", kernel, p)
			}
			if p.Breakdown != nil || p.Elems != 0 {
				t.Errorf("%s: app prediction carries loop-only fields: %+v", kernel, p)
			}
			if total := p.Parts.Total(); math.Abs(total-p.RuntimeSeconds) > 1e-15*math.Abs(total) {
				t.Errorf("%s: parts total %v != runtime %v", kernel, total, p.RuntimeSeconds)
			}
		}
	}
}

func TestPredictErrors(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		unknown bool // expect *UnknownError; otherwise *BadRequestError
	}{
		{"unknown kernel", Request{Kernel: "nope", Toolchain: "GNU"}, true},
		{"unknown toolchain", Request{Kernel: "exp", Toolchain: "nope"}, true},
		{"unknown machine", Request{Kernel: "exp", Toolchain: "GNU", Machine: "nope"}, true},
		{"intel on a64fx", Request{Kernel: "exp", Toolchain: "Intel", Machine: "Ookami"}, false},
		{"negative threads", Request{Kernel: "exp", Toolchain: "GNU", Threads: -1}, false},
		{"negative elems", Request{Kernel: "exp", Toolchain: "GNU", Elems: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Predict(c.req)
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var ue *UnknownError
			var be *BadRequestError
			if c.unknown && !errors.As(err, &ue) {
				t.Errorf("want UnknownError, got %T: %v", err, err)
			}
			if !c.unknown && !errors.As(err, &be) {
				t.Errorf("want BadRequestError, got %T: %v", err, err)
			}
			if _, kerr := c.req.Key(); kerr == nil {
				t.Error("Key() accepted a request Predict rejects")
			}
		})
	}
}

// The cache key must canonicalize case and defaults: requests that
// Predict answers identically must share a key.
func TestRequestKeyCanonicalizes(t *testing.T) {
	a, err := Request{Kernel: "EXP", Toolchain: "fujitsu"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Request{Kernel: "exp", Toolchain: "Fujitsu", Machine: "ookami", Threads: 1, Elems: DefaultElems}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
	c, _ := Request{Kernel: "exp", Toolchain: "Fujitsu", Threads: 2}.Key()
	if a == c {
		t.Error("different thread counts must not share a key")
	}
}

// Equal answers must share one cache key, or one client can fill the
// serve cache with copies of one answer by varying a field Predict
// ignores. Thread counts past a machine's cores are the case in point:
// Predict clamps them, so Key must too. The converse (equal keys mean
// equal answers) is the cache's correctness contract.
func TestRequestKeyMatchesPredictBody(t *testing.T) {
	var kernels []string
	for _, l := range AllLoops {
		kernels = append(kernels, l.String())
	}
	kernels = append(kernels, npb.SuiteNames()...)
	keyOf := map[string]string{}  // marshaled body -> key
	bodyOf := map[string]string{} // key -> marshaled body
	for _, tc := range toolchain.All {
		for _, kernel := range kernels {
			for _, m := range profiledMachines {
				for _, threads := range []int{0, 1, 12, 48, 49, 1e9} {
					req := Request{Kernel: kernel, Toolchain: tc.Name, Machine: m.Name, Threads: threads}
					p, err := Predict(req)
					if err != nil {
						continue // rejected combination; TestPredictErrors pins Key agreeing
					}
					body, err := json.Marshal(p)
					if err != nil {
						t.Fatal(err)
					}
					key, err := req.Key()
					if err != nil {
						t.Fatalf("%+v: Predict answered but Key failed: %v", req, err)
					}
					if k, ok := keyOf[string(body)]; ok && k != key {
						t.Errorf("%+v: equal answers under keys %q and %q", req, k, key)
					}
					if b, ok := bodyOf[key]; ok && b != string(body) {
						t.Errorf("%+v: key %q maps to two answers", req, key)
					}
					keyOf[string(body)] = key
					bodyOf[key] = string(body)
				}
			}
		}
	}
	if len(keyOf) == 0 {
		t.Fatal("no request was answered")
	}
}

func TestDiscoveryLists(t *testing.T) {
	if got := len(Loops()); got != 11 {
		t.Errorf("Loops() = %d entries, want 11", got)
	}
	if got := len(Toolchains()); got != 5 {
		t.Errorf("Toolchains() = %d entries, want 5", got)
	}
	ms := Machines()
	if len(ms) != 4 {
		t.Errorf("Machines() = %d entries, want 4", len(ms))
	}
	for _, m := range ms {
		if m.RidgeFlopByte <= 0 || m.PeakGFLOPSNode <= 0 {
			t.Errorf("machine %s: bad roofline constants %+v", m.Name, m)
		}
	}
}

func TestRooflineResultMatchesText(t *testing.T) {
	r := Roofline()
	if len(r.Machines) != 2 || len(r.Winners) != 6 {
		t.Fatalf("unexpected shape: %d machines, %d winners", len(r.Machines), len(r.Winners))
	}
	text := r.Text()
	for _, w := range r.Winners {
		if !strings.Contains(text, w.App) {
			t.Errorf("text missing app %s", w.App)
		}
	}
	for _, m := range r.Machines {
		if len(m.Points) != 6 {
			t.Errorf("%s: %d points, want 6", m.Machine, len(m.Points))
		}
	}
}

// An app request on the package-level Predict compiles the five math
// loops and schedules them all on one Scheduler's buffers: beyond the
// compiles it allocates what one Scheduler does over the five bodies,
// plus a handful for the math-cost map and the answer. A fresh
// Scheduler per loop would add about one more Scheduler's worth.
func TestAppPredictSchedulesOnOneScheduler(t *testing.T) {
	tc, m := toolchain.Fujitsu, machine.A64FX
	prof, _ := perfmodel.ProfileFor(m.Name)
	var bodies []perfmodel.Body
	for _, l := range toolchain.MathLoops {
		c := tc.Compile(l, m)
		if !c.Vectorized {
			t.Fatalf("%v does not vectorize under %s: the test needs five schedules", l, tc.Name)
		}
		bodies = append(bodies, c.Body)
	}
	compile := testing.AllocsPerRun(3, func() {
		for _, l := range toolchain.MathLoops {
			tc.Compile(l, m)
		}
	})
	oneScheduler := testing.AllocsPerRun(3, func() {
		var sc perfmodel.Scheduler
		for _, b := range bodies {
			sc.CyclesPerIter(prof, b)
		}
	})
	req := Request{Kernel: "CG", Toolchain: tc.Name}
	app := testing.AllocsPerRun(3, func() {
		if _, err := Predict(req); err != nil {
			t.Fatal(err)
		}
	})
	const rest = 16
	if app > compile+oneScheduler+rest {
		t.Errorf("app Predict: %v allocations, want at most %v compiling + %v on one Scheduler + %d",
			app, compile, oneScheduler, rest)
	}
}
