package perfmodel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ookami/internal/explain"
	"ookami/internal/machine"
	pm "ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// steadyRef is what Scheduler.SteadyState must return for body on p,
// from the cycle-stepped reference: the 64-iteration run's utilization
// and the latest-done instruction of its iteration 32 (the lowest index
// on a tie), and the rate that run and a 128-iteration run of c128
// cycles give.
func steadyRef(p *pm.Profile, body pm.Body, c128 int) pm.SteadyState {
	c64, events, util := scheduleRef(p, body, 64)
	st := pm.SteadyState{CyclesPerIter: float64(c128-c64) / 64, Util: util, Critical: -1}
	latest := -1
	for _, e := range events[32*len(body) : 33*len(body)] {
		if e.Done > latest {
			latest, st.Critical = e.Done, e.Index
		}
	}
	return st
}

// checkSteadyState compares sc's one-run reading of body with steadyRef,
// and the typed breakdown NewBreakdown builds from it with the fields
// that reading implies.
func checkSteadyState(t *testing.T, sc *pm.Scheduler, p *pm.Profile, body pm.Body, elemsPerIter, c128 int) {
	t.Helper()
	want := steadyRef(p, body, c128)
	if got := sc.SteadyState(p, body); got != want {
		t.Fatalf("%s, %v: SteadyState = %+v, reference %+v", p.Name, body, got, want)
	}
	u := want.Util
	wantB := explain.Breakdown{
		Instructions: len(body), FPInstructions: body.CountFP(),
		Window: p.Window, IssueWidth: p.IssueWidth, ElemsPerIter: elemsPerIter,
		CyclesPerIter: want.CyclesPerIter, CyclesPerElem: want.CyclesPerIter / float64(elemsPerIter),
		FPUtilPct:    100 * float64(u.FPBusy) / float64(u.Cycles*p.FPPipes),
		LoadUtilPct:  100 * float64(u.LoadBusy) / float64(u.Cycles*p.LoadPipes),
		StoreUtilPct: 100 * float64(u.StoreBusy) / float64(u.Cycles*p.StorePipes),
		IntUtilPct:   100 * float64(u.IntBusy) / float64(u.Cycles*p.IntPipes),
		IPC:          u.IPC, CriticalIndex: want.Critical, CriticalOp: body[want.Critical].Op.String(),
	}
	// %+v, not ==: a body of 0-latency ops finishes in cycle 0 and its
	// utilizations are NaN.
	got := fmt.Sprintf("%+v", explain.NewBreakdown(p, body, elemsPerIter))
	if w := fmt.Sprintf("%+v", wantB); got != w {
		t.Fatalf("%s, %v: NewBreakdown = %s, reference %s", p.Name, body, got, w)
	}
}

// resolvedPairs calls f with every (toolchain, profiled machine) pair a
// query can name, and reports how many there were.
func resolvedPairs(f func(tc toolchain.Toolchain, m machine.Machine, p *pm.Profile)) int {
	pairs := 0
	for _, tc := range toolchain.All {
		for _, m := range machine.All {
			if p, ok := pm.ProfileFor(m.Name); ok && tc.Supports(m) {
				f(tc, m, p)
				pairs++
			}
		}
	}
	return pairs
}

// The typed breakdown must render exactly what Profile.Explain renders
// from the full traced run (the CLI's golden files pin the text), and its
// one-run reading must equal the reference's fields: on every compiled
// body of every pair, and on random bodies of every equivalence profile,
// read through one Scheduler reused from body to body.
func TestBreakdownTextMatchesPerfmodelExplain(t *testing.T) {
	var sc pm.Scheduler
	pairs := resolvedPairs(func(tc toolchain.Toolchain, m machine.Machine, p *pm.Profile) {
		for _, l := range explain.AllLoops {
			c := tc.Compile(l, m)
			if !c.Vectorized {
				continue
			}
			want := p.Explain(c.Body, c.ElemsPerIter)
			if got := explain.NewBreakdown(p, c.Body, c.ElemsPerIter).Text(); got != want {
				t.Errorf("%s/%s on %s: typed text diverged\n got: %q\nwant: %q", tc.Name, l, m.Name, got, want)
			}
			c128, _, _ := scheduleRef(p, c.Body, 128)
			checkSteadyState(t, &sc, p, c.Body, c.ElemsPerIter, c128)
		}
	})
	if pairs != 7 {
		t.Errorf("%d resolved pairs, want 7", pairs)
	}
	rng := rand.New(rand.NewSource(32))
	bodies := 60
	if testing.Short() {
		bodies = 12
	}
	for _, p := range equivalenceProfiles() {
		for b := 0; b < bodies; b++ {
			body := randomBody(rng, 24)
			c128, _, _ := scheduleRef(p, body, 128)
			checkSteadyState(t, &sc, p, body, 1+rng.Intn(16), c128)
		}
	}
}

// defaultPairBodies returns the vectorized body of every loop on every
// toolchain's default machine, with that machine's profile.
func defaultPairBodies() (profs []*pm.Profile, bodies []pm.Body) {
	for _, tc := range toolchain.All {
		m := explain.DefaultMachine(tc)
		p, _ := pm.ProfileFor(m.Name)
		for _, l := range explain.AllLoops {
			if c := tc.Compile(l, m); c.Vectorized {
				profs, bodies = append(profs, p), append(bodies, c.Body)
			}
		}
	}
	return profs, bodies
}

// The figures price through plain CyclesPerIter, so keeping iteration 32
// for the breakdown must not cost them a simulated iteration: over the
// default pairs' bodies the plain runs simulate 2,690 iterations.
// SteadyState simulates more, 3,089, as no jump may cover iteration 32;
// once head has passed it, the run must jump again.
func TestCyclesPerIterSimulatesNoMore(t *testing.T) {
	profs, bodies := defaultPairBodies()
	if len(bodies) != 52 {
		t.Fatalf("%d default-pair bodies, want 52", len(bodies))
	}
	var sc pm.Scheduler
	plain, kept := 0, 0
	for i, body := range bodies {
		cpi, sim := profs[i].CyclesPerIterSim(body)
		st, ksim := sc.SteadyStateSim(profs[i], body)
		if st.CyclesPerIter != cpi {
			t.Errorf("body %d: SteadyState rate %v, CyclesPerIter %v", i, st.CyclesPerIter, cpi)
		}
		plain, kept = plain+sim, kept+ksim
	}
	if plain > 2690 {
		t.Errorf("CyclesPerIter simulated %d iterations over the default-pair bodies, want at most 2690", plain)
	}
	if kept > 3089 {
		t.Errorf("SteadyState simulated %d iterations over the default-pair bodies, want at most 3089", kept)
	}
}

// A Scheduler keeps its buffers from body to body: once it has run the
// largest body, reading any of the bodies again allocates nothing. This
// is what lets a price table schedule its 11 loops on one set of buffers.
func TestSchedulerReusesBuffers(t *testing.T) {
	profs, bodies := defaultPairBodies()
	var sc pm.Scheduler
	for i, body := range bodies {
		sc.SteadyState(profs[i], body)
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i, body := range bodies {
			sc.SteadyState(profs[i], body)
		}
	})
	if allocs != 0 {
		t.Errorf("a warmed Scheduler allocates %v times over the default-pair bodies, want 0", allocs)
	}
}
