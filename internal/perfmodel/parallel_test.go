package perfmodel

import (
	"testing"

	"ookami/internal/machine"
	"ookami/internal/stats"
)

// A compute-bound app: lots of flops, negligible memory traffic.
var computeApp = AppProfile{
	Name:        "compute",
	Flops:       1e12,
	StreamBytes: 1e9,
	SerialFrac:  0.001,
	Barriers:    100,
}

// A bandwidth-bound app: stream traffic dominates.
var streamApp = AppProfile{
	Name:        "stream",
	Flops:       1e10,
	StreamBytes: 2e11,
	SerialFrac:  0.002,
	Barriers:    1000,
}

var plainExec = ExecParams{CyclesPerFlop: 0.3, Placement: FirstTouch}

func TestNodeTimeDecreasesWithThreads(t *testing.T) {
	t1 := NodeTime(machine.A64FX, computeApp, plainExec, 1)
	t48 := NodeTime(machine.A64FX, computeApp, plainExec, 48)
	if t48 >= t1 {
		t.Fatalf("no speedup: t1=%v t48=%v", t1, t48)
	}
	if sp := t1 / t48; sp < 40 {
		t.Errorf("compute-bound speedup at 48 threads = %.1f, want near-linear", sp)
	}
}

func TestBandwidthSaturationLimitsScaling(t *testing.T) {
	threads := []int{1, 2, 4, 8, 16, 32, 48}
	times := ScalingCurve(machine.A64FX, streamApp, plainExec, threads)
	eff := stats.Efficiency(threads, times)
	// A64FX stream apps saturate HBM: ~0.5-0.7 efficiency at 48 cores
	// (paper Fig. 5, SP at 0.6).
	if eff[len(eff)-1] > 0.8 || eff[len(eff)-1] < 0.3 {
		t.Errorf("stream-app efficiency at 48 = %.2f, want ~0.5-0.7", eff[len(eff)-1])
	}
	// The compute app must scale better than the stream app.
	ct := ScalingCurve(machine.A64FX, computeApp, plainExec, threads)
	ceff := stats.Efficiency(threads, ct)
	if ceff[len(ceff)-1] <= eff[len(eff)-1] {
		t.Errorf("compute eff %.2f should exceed stream eff %.2f",
			ceff[len(ceff)-1], eff[len(eff)-1])
	}
}

func TestSkylakeFrequencyDroopCapsEfficiency(t *testing.T) {
	// Even embarrassingly parallel work tops out near AllCore/Boost on
	// Skylake (paper Fig. 6: EP at ~0.7).
	threads := []int{1, 36}
	times := ScalingCurve(machine.SkylakeGold6140, computeApp, plainExec, threads)
	eff := stats.Efficiency(threads, times)
	want := machine.SkylakeGold6140.AllCore() / machine.SkylakeGold6140.Boost()
	if !stats.WithinFactor(eff[1], want, 1.15) {
		t.Errorf("SKX compute efficiency = %.2f, want ~%.2f (clock droop)", eff[1], want)
	}
	// A64FX has no droop: efficiency near 1.
	ta := ScalingCurve(machine.A64FX, computeApp, plainExec, []int{1, 48})
	ea := stats.Efficiency([]int{1, 48}, ta)
	if ea[1] < 0.9 {
		t.Errorf("A64FX compute efficiency = %.2f, want ~1", ea[1])
	}
}

func TestEffectiveBWShape(t *testing.T) {
	// The paper's bandwidth argument behind Fig. 4 under first-touch:
	// stream bandwidth scales to near 1 TB/s on A64FX, well above
	// Skylake's node, while A64FX random access trails Skylake per core
	// and leads it only at full node, where the HBM's parallelism counts.
	bw := func(m machine.Machine, p int) (stream, random float64) {
		return EffectiveBW(m, p, FirstTouch, 0)
	}
	a1, ar1 := bw(machine.A64FX, 1)
	a48, ar48 := bw(machine.A64FX, 48)
	s1, sr1 := bw(machine.SkylakeGold6140, 1)
	s36, sr36 := bw(machine.SkylakeGold6140, 36)
	if a1 >= a48 || s1 >= s36 {
		t.Errorf("stream must scale with threads: A64FX %v -> %v, Skylake %v -> %v", a1, a48, s1, s36)
	}
	// STREAM triad reaches ~92% of this, 800-1024 GB/s.
	if a48 < 870 || a48 > 1113 {
		t.Errorf("A64FX node stream %v GB/s, want near 1 TB/s", a48)
	}
	if a48/s36 < 3 {
		t.Errorf("A64FX/Skylake node stream ratio %.1f, want ~4x", a48/s36)
	}
	if ar1 >= sr1 {
		t.Errorf("A64FX single-core random bandwidth (%v) should trail Skylake (%v)", ar1, sr1)
	}
	if ar48 <= sr36 {
		t.Errorf("A64FX node random bandwidth (%v) should beat Skylake (%v)", ar48, sr36)
	}
}

func TestCMG0PlacementPenalty(t *testing.T) {
	// The Fujitsu default placement serves all traffic from CMG 0: a
	// stream-bound app at 48 threads must slow down substantially, and
	// first-touch must recover it (paper Fig. 4, SP).
	cmg0 := plainExec
	cmg0.Placement = CMG0
	tFT := NodeTime(machine.A64FX, streamApp, plainExec, 48)
	tC0 := NodeTime(machine.A64FX, streamApp, cmg0, 48)
	if tC0/tFT < 1.8 {
		t.Errorf("CMG0 slowdown = %.2fx, want >= 1.8x", tC0/tFT)
	}
	// At one thread (running on CMG 0) placement matters little.
	t1FT := NodeTime(machine.A64FX, streamApp, plainExec, 1)
	t1C0 := NodeTime(machine.A64FX, streamApp, cmg0, 1)
	if t1C0/t1FT > 1.15 {
		t.Errorf("single-thread CMG0 slowdown = %.2fx, want ~1", t1C0/t1FT)
	}
}

func TestTouchChurnLimitsFirstTouchRecovery(t *testing.T) {
	// An app with high TouchChurn (UA) keeps most of the penalty even
	// under first-touch.
	churny := streamApp
	churny.TouchChurn = 0.6
	tClean := NodeTime(machine.A64FX, streamApp, plainExec, 48)
	tChurn := NodeTime(machine.A64FX, churny, plainExec, 48)
	if tChurn/tClean < 1.3 {
		t.Errorf("churny app slowdown = %.2fx, want >= 1.3x", tChurn/tClean)
	}
	// Under CMG0 both behave the same (everything is concentrated anyway).
	cmg0 := plainExec
	cmg0.Placement = CMG0
	a := NodeTime(machine.A64FX, streamApp, cmg0, 48)
	b := NodeTime(machine.A64FX, churny, cmg0, 48)
	if !stats.WithinFactor(a, b, 1.01) {
		t.Errorf("CMG0 times differ: %v vs %v", a, b)
	}
}

func TestMathCallsCosted(t *testing.T) {
	app := AppProfile{
		Name:      "mathy",
		Flops:     1e9,
		MathCalls: map[MathFn]float64{FnExp: 1e9},
	}
	cheap := ExecParams{CyclesPerFlop: 0.1, MathCost: map[MathFn]float64{FnExp: 2}}
	dear := ExecParams{CyclesPerFlop: 0.1, MathCost: map[MathFn]float64{FnExp: 32}}
	tc := NodeTime(machine.A64FX, app, cheap, 1)
	td := NodeTime(machine.A64FX, app, dear, 1)
	if td/tc < 5 {
		t.Errorf("serial math library should dominate: ratio %.1f", td/tc)
	}
	// Unknown functions fall back to a conservative default, not zero.
	none := ExecParams{CyclesPerFlop: 0.1}
	tn := NodeTime(machine.A64FX, app, none, 1)
	if tn <= tc {
		t.Errorf("default math cost should not be free: %v vs %v", tn, tc)
	}
}

func TestSerialFractionAmdahl(t *testing.T) {
	app := computeApp
	app.SerialFrac = 0.1
	threads := []int{1, 48}
	times := ScalingCurve(machine.A64FX, app, plainExec, threads)
	eff := stats.Efficiency(threads, times)
	// Amdahl: speedup <= 1/(0.1 + 0.9/48) = 8.45 -> eff <= 0.18.
	if eff[1] > 0.2 {
		t.Errorf("Amdahl violated: eff = %.2f", eff[1])
	}
}

func TestThreadCountGuards(t *testing.T) {
	// Above-core counts clamp.
	a := NodeTime(machine.A64FX, computeApp, plainExec, 48)
	b := NodeTime(machine.A64FX, computeApp, plainExec, 96)
	if a != b {
		t.Errorf("clamp failed: %v vs %v", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero threads should panic")
		}
	}()
	NodeTime(machine.A64FX, computeApp, plainExec, 0)
}

func TestMathFnPlacementStrings(t *testing.T) {
	if FnExp.String() != "exp" || FnSqrt.String() != "sqrt" {
		t.Error("MathFn names")
	}
	if FirstTouch.String() != "first-touch" || CMG0.String() != "cmg0" {
		t.Error("Placement names")
	}
}

// TestNodeTimeMathCallSummationIsDeterministic is the regression test
// for the map-iteration-order bug the purity pass surfaced: NodeTime
// used to sum math-library cycles by ranging over the MathCalls map
// directly, so Go's randomized iteration order could change the
// floating-point summation order — and therefore the model output —
// between calls with identical inputs. The costs below are chosen so
// any reordering of the non-associative sum changes the result bits.
func TestNodeTimeMathCallSummationIsDeterministic(t *testing.T) {
	app := computeApp
	app.MathCalls = map[MathFn]float64{
		FnExp:   1e9 + 0.3,
		FnLog:   1e-7,
		FnSin:   3e8 + 0.7,
		FnPow:   1e-9,
		FnSqrt:  7e7 + 0.1,
		FnRecip: 1e-5,
	}
	exec := plainExec
	exec.MathCost = map[MathFn]float64{
		FnExp: 4.25, FnLog: 5.5, FnSin: 6.75, FnPow: 21.125, FnSqrt: 2.375, FnRecip: 1.625,
	}
	want := NodeTime(machine.A64FX, app, exec, 12)
	for i := 0; i < 200; i++ {
		if got := NodeTime(machine.A64FX, app, exec, 12); got != want {
			t.Fatalf("call %d: NodeTime not bit-stable: got %v, want %v", i, got, want)
		}
	}
}
