package perfmodel_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ookami/internal/machine"
	pm "ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// refPipe is the pipe kind an op issues to: 0 FP (and CALL), 1 load,
// 2 store, 3 integer.
func refPipe(op pm.Op) int {
	switch op {
	case pm.LOAD, pm.GATHER, pm.GATHERW:
		return 1
	case pm.STORE, pm.PSTORE, pm.SCATTER, pm.SCATTERW:
		return 2
	case pm.INT, pm.PRED, pm.BRANCH:
		return 3
	}
	return 0
}

// scheduleRef is the cycle-stepped scheduler the event-driven core
// replaced: every cycle it retires, admits, then rescans the whole window
// oldest-first. It is the oracle the core must match exactly — total
// cycles, every IssueEvent and the Utilization. It uses only the
// package's exported API, so it shares no code with the core.
func scheduleRef(p *pm.Profile, body pm.Body, iters int) (int, []pm.IssueEvent, pm.Utilization) {
	const maxCycles = 1 << 26
	type refInstr struct {
		op     pm.Op
		deps   []int // global indices
		issued bool
		done   int
	}
	n := len(body)
	total := n * iters
	instrs := make([]refInstr, total)
	for k := 0; k < iters; k++ {
		off := k * n
		for i, ins := range body {
			si := refInstr{op: ins.Op, done: -1}
			for _, d := range ins.Deps {
				si.deps = append(si.deps, off+d)
			}
			if k > 0 {
				for _, c := range ins.Carried {
					si.deps = append(si.deps, off-n+c)
				}
			}
			instrs[off+i] = si
		}
	}
	busy := [4][]int{make([]int, p.FPPipes), make([]int, p.LoadPipes),
		make([]int, p.StorePipes), make([]int, p.IntPipes)}
	events := make([]pm.IssueEvent, total)
	var util pm.Utilization

	head, tail, cycle := 0, 0, 0
	for head < total && cycle < maxCycles {
		for head < total && instrs[head].issued && instrs[head].done <= cycle {
			head++
		}
		for tail < total && tail-head < p.Window {
			tail++
		}
		issued := 0
		for gi := head; gi < tail && issued < p.IssueWidth; gi++ {
			ins := &instrs[gi]
			if ins.issued {
				continue
			}
			ready := true
			for _, d := range ins.deps {
				dep := &instrs[d]
				if !dep.issued || dep.done > cycle {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			kind := refPipe(ins.op)
			slots := busy[kind]
			slot := -1
			if ins.op == pm.FDIV || ins.op == pm.FSQRT {
				if len(slots) > 0 && slots[0] <= cycle {
					slot = 0
				}
			} else {
				for s := range slots {
					if s == 0 && kind == 0 && slots[0] > cycle {
						continue
					}
					if slots[s] <= cycle {
						slot = s
						break
					}
				}
			}
			if slot < 0 {
				continue
			}
			c := p.CostOf(ins.op)
			slots[slot] = cycle + c.Occupancy
			ins.issued = true
			ins.done = cycle + c.Latency
			events[gi] = pm.IssueEvent{
				Iter: gi / n, Index: gi % n, Op: ins.op,
				Issue: cycle, Done: ins.done,
			}
			switch kind {
			case 0:
				util.FPBusy += c.Occupancy
			case 1:
				util.LoadBusy += c.Occupancy
			case 2:
				util.StoreBusy += c.Occupancy
			default:
				util.IntBusy += c.Occupancy
			}
			issued++
		}
		cycle++
	}
	last := 0
	for i := range instrs {
		if instrs[i].done > last {
			last = instrs[i].done
		}
	}
	util.Cycles = last
	util.Instructions = total
	if last > 0 {
		util.IPC = float64(total) / float64(last)
	}
	return last, events, util
}

// checkAgainstRef runs body through Schedule and ScheduleTrace and
// compares both with the oracle.
func checkAgainstRef(t *testing.T, p *pm.Profile, body pm.Body, iters int) {
	t.Helper()
	wantCycles, wantEvents, wantUtil := scheduleRef(p, body, iters)
	if got := p.Schedule(body, iters); got != wantCycles {
		t.Fatalf("%s, %d iters of %v: Schedule = %d cycles, reference %d",
			p.Name, iters, body, got, wantCycles)
	}
	events, util := p.ScheduleTrace(body, iters)
	if util != wantUtil {
		t.Fatalf("%s, %d iters of %v: utilization %+v, reference %+v",
			p.Name, iters, body, util, wantUtil)
	}
	if !reflect.DeepEqual(events, wantEvents) {
		for g := range events {
			if events[g] != wantEvents[g] {
				t.Fatalf("%s, %d iters of %v: event %d = %+v, reference %+v",
					p.Name, iters, body, g, events[g], wantEvents[g])
			}
		}
	}
}

// zeroCostProfile has 0-latency and 0-occupancy classes, so a consumer can
// issue in its producer's cycle and a pipe can take several ops per cycle.
var zeroCostProfile = pm.Profile{
	Name: "zero-cost", FPPipes: 2, LoadPipes: 1, StorePipes: 1, IntPipes: 1,
	IssueWidth: 4, Window: 12,
	Costs: map[pm.Op]pm.Cost{
		pm.FMA: {0, 1}, pm.FMUL: {3, 0}, pm.FADD: {0, 0}, pm.FSQRT: {5, 5}, pm.FDIV: {0, 3},
		pm.LOAD: {0, 1}, pm.STORE: {0, 0}, pm.INT: {0, 0}, pm.GATHER: {2, 0},
	},
}

// equivalenceProfiles are the profiles the random-body test covers: both
// modeled machines, a narrow core, and the zero-cost corner.
func equivalenceProfiles() []*pm.Profile {
	narrow := pm.A64FXProfile
	narrow.Name = "narrow"
	narrow.Window, narrow.IssueWidth, narrow.FPPipes = 7, 3, 1
	a64, sky, zero := pm.A64FXProfile, pm.SkylakeProfile, zeroCostProfile
	return []*pm.Profile{&a64, &sky, &narrow, &zero}
}

// randomBody draws a valid body of 1..maxLen instructions with up to three
// same-iteration and two carried dependences each.
func randomBody(rng *rand.Rand, maxLen int) pm.Body {
	n := 1 + rng.Intn(maxLen)
	body := make(pm.Body, n)
	for i := range body {
		body[i].Op = pm.Op(rng.Intn(numOps))
		if i > 0 {
			for d := rng.Intn(4); d > 0; d-- {
				body[i].Deps = append(body[i].Deps, rng.Intn(i))
			}
		}
		if rng.Intn(3) == 0 {
			for c := 1 + rng.Intn(2); c > 0; c-- {
				body[i].Carried = append(body[i].Carried, rng.Intn(n))
			}
		}
	}
	return body
}

func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bodies := 150
	if testing.Short() {
		bodies = 30
	}
	for _, p := range equivalenceProfiles() {
		for b := 0; b < bodies; b++ {
			checkAgainstRef(t, p, randomBody(rng, 24), 1+rng.Intn(40))
		}
	}
}

// TestScheduleSkipMatchesFullRun checks the steady-state skip on runs long
// enough to jump, which the short random runs above rarely are. Schedule
// must equal the cycles of ScheduleTrace, which simulates every
// iteration, and CyclesPerIter, which forks its 128-iteration run from
// its 64-iteration one, must equal the difference of the two full runs.
func TestScheduleSkipMatchesFullRun(t *testing.T) {
	check := func(p *pm.Profile, body pm.Body, iters ...int) {
		t.Helper()
		full := map[int]int{}
		for _, n := range append(iters, 64, 128) {
			_, util := p.ScheduleTrace(body, n)
			full[n] = util.Cycles
			if got := p.Schedule(body, n); got != util.Cycles {
				t.Fatalf("%s, %d iters of %v: Schedule = %d cycles, full run %d",
					p.Name, n, body, got, util.Cycles)
			}
		}
		if got, want := p.CyclesPerIter(body), float64(full[128]-full[64])/64; got != want {
			t.Fatalf("%s, %v: CyclesPerIter = %v, full runs give %v", p.Name, body, got, want)
		}
	}
	sels, codes := compiledBodies(t)
	for i := range codes {
		check(decodeProfile([]byte{sels[i]}), decodeBody(codes[i]), 192, 1000)
	}
	rng := rand.New(rand.NewSource(21))
	bodies := 60
	if testing.Short() {
		bodies = 15
	}
	for _, p := range equivalenceProfiles() {
		for b := 0; b < bodies; b++ {
			check(p, randomBody(rng, 24), 1+rng.Intn(400))
		}
	}

	// The skip must act: GNU's blocking FSQRT loop on A64FX repeats
	// within a few iterations.
	a64, _ := pm.ProfileFor(machine.A64FX.Name)
	body := toolchain.GNU.Compile(toolchain.LoopSqrt, machine.A64FX).Body
	if _, sim := a64.ScheduleSim(body, 1000); sim >= 100 {
		t.Errorf("Schedule simulated %d of 1000 iterations of GNU sqrt on A64FX; want a skip", sim)
	}
	if _, sim := a64.CyclesPerIterSim(body); sim >= 64 {
		t.Errorf("CyclesPerIter simulated %d of 192 iterations of GNU sqrt on A64FX; want a skip", sim)
	}
}

func TestScheduleTraceMatchesSchedule(t *testing.T) {
	// Schedule and the instrumented ScheduleTrace are one run: both must
	// match the reference scheduler's total cycles, every issue event and
	// the utilization, for a variety of bodies.
	bodies := []pm.Body{
		{pm.I(pm.LOAD), pm.I(pm.FMA, 0), pm.I(pm.STORE, 1)},
		{pm.IC(pm.FMA, nil, []int{0})},
		{pm.I(pm.LOAD), pm.I(pm.FSQRT, 0), pm.I(pm.STORE, 1)},
		{pm.I(pm.FMA), pm.I(pm.FMA), pm.I(pm.FMA), pm.I(pm.FMA), pm.I(pm.INT), pm.I(pm.BRANCH)},
	}
	for _, p := range []*pm.Profile{&pm.A64FXProfile, &pm.SkylakeProfile} {
		for _, body := range bodies {
			checkAgainstRef(t, p, body, 32)
		}
	}
}
