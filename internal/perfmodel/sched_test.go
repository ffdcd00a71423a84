package perfmodel

import (
	"math"
	"strings"
	"testing"

	"ookami/internal/machine"
)

func TestBodyValidate(t *testing.T) {
	good := Body{I(LOAD), I(FMA, 0), I(STORE, 1)}
	if !good.Validate() {
		t.Error("valid body rejected")
	}
	forward := Body{I(FMA, 1), I(LOAD)}
	if forward.Validate() {
		t.Error("forward dep accepted")
	}
	self := Body{I(FMA, 0)}
	if self.Validate() {
		t.Error("self dep accepted")
	}
	carriedOK := Body{IC(FADD, nil, []int{0})}
	if !carriedOK.Validate() {
		t.Error("carried self-dep (reduction) rejected")
	}
	carriedBad := Body{IC(FADD, nil, []int{5})}
	if carriedBad.Validate() {
		t.Error("out-of-range carried dep accepted")
	}
}

func TestCountFP(t *testing.T) {
	b := Body{I(LOAD), I(FMA, 0), I(FMUL, 1), I(INT), I(STORE, 2), I(PRED)}
	if got := b.CountFP(); got != 2 {
		t.Errorf("CountFP = %d want 2", got)
	}
}

func TestScheduleEmpty(t *testing.T) {
	var p = A64FXProfile
	if p.Schedule(nil, 10) != 0 || p.Schedule(Body{I(FMA)}, 0) != 0 {
		t.Error("empty schedule should be zero cycles")
	}
}

func TestLatencyBoundChain(t *testing.T) {
	// A reduction: acc = fma(acc, x, y) carried across iterations. The
	// steady state must be one FMA latency per iteration.
	p := A64FXProfile
	body := Body{IC(FMA, nil, []int{0})}
	got := p.CyclesPerIter(body)
	want := float64(p.Costs[FMA].Latency)
	if math.Abs(got-want) > 0.5 {
		t.Errorf("carried FMA chain: %.2f cycles/iter, want ~%v", got, want)
	}
}

func TestThroughputBoundIndependent(t *testing.T) {
	// Independent FMAs with no carried deps: limited by 2 FP pipes.
	p := A64FXProfile
	body := Body{I(FMA), I(FMA), I(FMA), I(FMA)}
	got := p.CyclesPerIter(body)
	if math.Abs(got-2.0) > 0.3 { // 4 FMAs / 2 pipes
		t.Errorf("independent FMAs: %.2f cycles/iter, want ~2", got)
	}
}

func TestIssueWidthLimits(t *testing.T) {
	// 8 single-cycle INT ops on 2 int pipes: 4 cycles/iter even though the
	// issue width is 4.
	p := A64FXProfile
	body := Body{I(INT), I(INT), I(INT), I(INT), I(INT), I(INT), I(INT), I(INT)}
	got := p.CyclesPerIter(body)
	if math.Abs(got-4.0) > 0.5 {
		t.Errorf("int-bound loop: %.2f cycles/iter, want ~4", got)
	}
}

func TestBlockingSqrtDominates(t *testing.T) {
	// One FSQRT per iteration on A64FX: the blocking 134-cycle unit caps
	// throughput at ~134 cycles/iter regardless of other work.
	p := A64FXProfile
	body := Body{I(LOAD), I(FSQRT, 0), I(STORE, 1)}
	got := p.CyclesPerIter(body)
	if got < 120 || got > 150 {
		t.Errorf("FSQRT loop: %.2f cycles/iter, want ~134", got)
	}
	// The same loop on Skylake is an order of magnitude cheaper.
	s := SkylakeProfile
	sk := s.CyclesPerIter(body)
	if sk > 30 {
		t.Errorf("Skylake FSQRT loop: %.2f cycles/iter, want ~24", sk)
	}
}

func TestNewtonSqrtBeatsBlockingOnA64FX(t *testing.T) {
	// The paper's core Figure 2 claim: the Newton-iteration square root
	// (Cray/Fujitsu) is dramatically faster than the blocking FSQRT
	// (GNU/ARM) on A64FX — even though both "fully vectorize".
	p := A64FXProfile
	blocking := Body{I(LOAD), I(FSQRT, 0), I(STORE, 1)}
	// rsqrte + 3 Newton steps (2 muls + 1 rsqrts each) + final mul+fixup.
	newton := Body{
		I(LOAD),        // 0: d
		I(FRSQRTE, 0),  // 1: x0
		I(FMUL, 0, 1),  // 2: d*x0
		I(FMA, 2, 1),   // 3: rsqrts step
		I(FMUL, 1, 3),  // 4: x1
		I(FMUL, 0, 4),  // 5
		I(FMA, 5, 4),   // 6
		I(FMUL, 4, 6),  // 7: x2
		I(FMUL, 0, 7),  // 8
		I(FMA, 8, 7),   // 9
		I(FMUL, 7, 9),  // 10: x3
		I(FMUL, 0, 10), // 11: s = d*x3
		I(FMA, 11, 10), // 12: correction
		I(STORE, 12),   // 13
	}
	// Production compilers unroll the Newton recurrence (Fujitsu unrolls
	// x4), so compare the unrolled form, as the Figure 2 harness does.
	bc := p.CyclesPerIter(blocking)
	nc := p.CyclesPerIter(newton.Repeat(4)) / 4
	if bc/nc < 8 {
		t.Errorf("Newton speedup over blocking FSQRT = %.1fx, want >= 8x (bc=%.1f nc=%.1f)",
			bc/nc, bc, nc)
	}
}

func TestUnrollAmortizesLoopControl(t *testing.T) {
	// Out-of-order execution already overlaps iterations, so unrolling pays
	// by amortizing the loop-control instructions (whilelt/ptest, counter,
	// branch) across more elements — Section IV's 2.2 -> 2.0 -> 1.9
	// cycles/element progression.
	p := A64FXProfile
	compute := Body{
		I(LOAD),
		I(FMA, 0), I(FMA, 1), I(FMA, 2), I(FMA, 3), I(FMA, 4),
		I(STORE, 5),
	}
	control := Body{I(INT), I(PRED), I(INT), I(BRANCH)}
	vla := append(append(Body{}, compute...), control...)
	unrolled := compute.Repeat(2, control...)
	c1 := p.CyclesPerElement(vla, 8)
	c2 := p.CyclesPerElement(unrolled, 16)
	if c2 >= c1 {
		t.Errorf("unrolling did not help: %.2f -> %.2f cycles/elem", c1, c2)
	}
}

func TestRepeatPreservesSemantics(t *testing.T) {
	b := Body{I(LOAD), IC(FMA, []int{0}, []int{1})}
	r := b.Repeat(3)
	if len(r) != 6 {
		t.Fatalf("repeat length %d", len(r))
	}
	if !r.Validate() {
		t.Fatal("repeated body invalid")
	}
	// Copy 0 keeps the carried dep; copies 1,2 resolve it to the previous
	// copy's instruction 1 (global index 1 and 3).
	if len(r[1].Carried) != 1 || r[1].Carried[0] != 1 {
		t.Errorf("copy 0 carried = %v", r[1].Carried)
	}
	if len(r[3].Carried) != 0 || len(r[3].Deps) != 2 || r[3].Deps[1] != 1 {
		t.Errorf("copy 1 deps = %v carried = %v", r[3].Deps, r[3].Carried)
	}
}

func TestWindowLimitsOverlap(t *testing.T) {
	// With a tiny window, a latency-bound loop cannot overlap iterations;
	// a big window approaches the throughput bound. This is the modeled
	// difference between A64FX and Skylake OoO capacity.
	small := A64FXProfile
	small.Window = 8
	big := A64FXProfile
	big.Window = 256
	chain := Body{
		I(LOAD),
		I(FMA, 0), I(FMA, 1), I(FMA, 2), I(FMA, 3), I(FMA, 4),
		I(STORE, 5),
	}
	cs := small.CyclesPerIter(chain)
	cb := big.CyclesPerIter(chain)
	if cb >= cs {
		t.Errorf("bigger window should be faster: small=%.1f big=%.1f", cs, cb)
	}
	if cb > 4 { // 5 FMAs + load on 2 pipes ~ 3 cycles
		t.Errorf("big window should approach throughput bound, got %.1f", cb)
	}
}

func TestInvalidBodyPanics(t *testing.T) {
	p := A64FXProfile
	defer func() {
		if recover() == nil {
			t.Error("invalid body should panic")
		}
	}()
	p.Schedule(Body{I(FMA, 3)}, 1)
}

func TestCyclesPerElementGuards(t *testing.T) {
	p := A64FXProfile
	defer func() {
		if recover() == nil {
			t.Error("zero elems should panic")
		}
	}()
	p.CyclesPerElement(Body{I(FMA)}, 0)
}

func TestSecondsFor(t *testing.T) {
	p := A64FXProfile // 1.8 GHz
	// 1.8 cycles/elem * 1e9 elems at 1.8 GHz = 1 second.
	if got := p.SecondsFor(1.8, 1e9); math.Abs(got-1) > 1e-9 {
		t.Errorf("SecondsFor = %v", got)
	}
}

func TestOpStringAndPipes(t *testing.T) {
	if FMA.String() != "FMA" || FSQRT.String() != "FSQRT" || BRANCH.String() != "BRANCH" {
		t.Error("op names wrong")
	}
	if Op(99).String() != "OP?" {
		t.Error("unknown op name")
	}
	if LOAD.pipe() != pipeLoad || STORE.pipe() != pipeStore || INT.pipe() != pipeInt || FMA.pipe() != pipeFP {
		t.Error("pipe mapping wrong")
	}
}

func TestProfileFor(t *testing.T) {
	if p, ok := ProfileFor("Ookami"); !ok || p.ClockGHz != 1.8 {
		t.Error("A64FX profile lookup")
	}
	if p, ok := ProfileFor("Skylake-6140"); !ok || p.Window <= A64FXProfile.Window {
		t.Error("Skylake profile lookup / window ordering")
	}
	if _, ok := ProfileFor("nope"); ok {
		t.Error("unknown machine should miss")
	}
}

func TestCostOfDefault(t *testing.T) {
	p := A64FXProfile
	if c := p.CostOf(CALL); c.Latency != 1 || c.Occupancy != 1 {
		t.Errorf("default cost = %+v", c)
	}
}

func TestDegenerateProfilesPanic(t *testing.T) {
	// A profile that cannot issue some op of the body used to spin up to
	// the cycle cap and return a truncated count (0, 24 or 4430 cycles
	// here), so CyclesPerElement read 0. It must fail loudly instead.
	body := Body{I(LOAD), I(FSQRT, 0), I(STORE, 1)}
	slowSqrt := map[Op]Cost{}
	for op, c := range A64FXProfile.Costs {
		slowSqrt[op] = c
	}
	slowSqrt[FSQRT] = Cost{Latency: 1 << 21, Occupancy: 1 << 21}
	for _, tc := range []struct {
		name string
		edit func(*Profile)
		want string
	}{
		{"window 0", func(p *Profile) { p.Window = 0 }, "window 0"},
		{"issue width 0", func(p *Profile) { p.IssueWidth = 0 }, "issue width 0"},
		{"no FP pipe", func(p *Profile) { p.FPPipes = 0 }, "no FP pipe to issue FSQRT"},
		{"no store pipe", func(p *Profile) { p.StorePipes = 0 }, "no store pipe to issue STORE"},
		{"cycle cap", func(p *Profile) { p.Costs = slowSqrt }, "did not finish 192 instructions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := A64FXProfile
			tc.edit(&p)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one naming %q", msg, tc.want)
				}
			}()
			got := p.Schedule(body, 64)
			t.Errorf("Schedule returned %d cycles instead of panicking", got)
		})
	}
}

func TestNegativeItersPanics(t *testing.T) {
	// A negative count used to die in makeslice with a runtime error.
	p := A64FXProfile
	body := Body{I(LOAD), I(FMA, 0), I(STORE, 1)}
	for name, run := range map[string]func(){
		"Schedule":      func() { p.Schedule(body, -1) },
		"ScheduleTrace": func() { p.ScheduleTrace(body, -1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if want := "perfmodel: negative iteration count -1"; msg != want {
					t.Errorf("panic %q, want %q", msg, want)
				}
			}()
			run()
			t.Error("no panic")
		})
	}
}

func TestScheduleAllocsIndependentOfIters(t *testing.T) {
	// The run state is a handful of flat slices: no per-instruction
	// allocation, so doubling the iterations must not add allocations.
	p, _ := ProfileFor(machine.A64FX.Name)
	body := Body{I(LOAD), I(FMA, 0), IC(FADD, []int{1}, []int{2}), I(FSQRT, 2), I(STORE, 3), I(INT), I(BRANCH, 5)}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() { p.Schedule(body, iters) })
	}
	if a64, a128 := allocs(64), allocs(128); a128 != a64 {
		t.Errorf("Schedule allocates %v times at 64 iterations but %v at 128", a64, a128)
	}
}
