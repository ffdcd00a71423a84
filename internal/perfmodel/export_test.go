package perfmodel

import (
	"fmt"
	"math"
	"strings"
)

// ScheduleSim is Schedule that also returns how many of the iterations were
// simulated rather than skipped as repeats of the steady state.
func (p *Profile) ScheduleSim(body Body, iters int) (cycles, simulated int) {
	return p.schedule(body, iters)
}

// CyclesPerIterSim is CyclesPerIter that also returns how many iterations
// its two runs simulated between them.
func (p *Profile) CyclesPerIterSim(body Body) (cpi float64, simulated int) {
	var sc Scheduler
	return sc.cyclesPerIter(p, body, false), sc.simulated()
}

// SteadyStateSim is Scheduler.SteadyState that also returns how many
// iterations its two runs simulated between them.
func (sc *Scheduler) SteadyStateSim(p *Profile, body Body) (SteadyState, int) {
	return sc.SteadyState(p, body), sc.simulated()
}

// simulated is how many iterations the two runs of sc's last non-empty
// body simulated between them.
func (sc *Scheduler) simulated() int {
	if sc.short.n == 0 {
		return 0
	}
	return sc.short.simulated() + sc.long.simulated()
}

// ScheduleTrace simulates iters iterations of body and returns the issue
// trace plus utilization. It is the same run as Schedule, recorded, and
// it simulates every iteration: it never skips the steady state.
func (p *Profile) ScheduleTrace(body Body, iters int) ([]IssueEvent, Utilization) {
	if !runnable(body, iters) {
		return nil, Utilization{}
	}
	var s schedCore
	s.reset(p, body, iters)
	s.next = math.MaxInt
	s.events = make([]IssueEvent, s.total)
	s.run()
	return s.events, s.utilization(iters)
}

// Explain renders a human-readable cost breakdown of a body on this
// profile from the full traced run: steady-state cycles/iteration, pipe
// utilizations, and the instruction of iteration 32 with the latest
// completion time. explain.Breakdown.Text must render the same bytes.
func (p *Profile) Explain(body Body, elemsPerIter int) string {
	const iters = 64
	events, util := p.ScheduleTrace(body, iters)
	var b strings.Builder
	cpi := p.CyclesPerIter(body)
	fmt.Fprintf(&b, "body: %d instructions (%d FP), window %d, issue %d\n",
		len(body), body.CountFP(), p.Window, p.IssueWidth)
	fmt.Fprintf(&b, "steady state: %.2f cycles/iter", cpi)
	if elemsPerIter > 0 {
		fmt.Fprintf(&b, " = %.2f cycles/element", cpi/float64(elemsPerIter))
	}
	b.WriteByte('\n')
	denomFP := float64(util.Cycles * p.FPPipes)
	denomLd := float64(util.Cycles * p.LoadPipes)
	denomSt := float64(util.Cycles * p.StorePipes)
	denomInt := float64(util.Cycles * p.IntPipes)
	fmt.Fprintf(&b, "pipe utilization: FP %.0f%%  load %.0f%%  store %.0f%%  int %.0f%%  (IPC %.2f)\n",
		100*float64(util.FPBusy)/denomFP, 100*float64(util.LoadBusy)/denomLd,
		100*float64(util.StoreBusy)/denomSt, 100*float64(util.IntBusy)/denomInt, util.IPC)
	mid := iters / 2
	latest, latestIdx := -1, -1
	for _, e := range events {
		if e.Iter == mid && e.Done > latest {
			latest = e.Done
			latestIdx = e.Index
		}
	}
	if latestIdx >= 0 {
		fmt.Fprintf(&b, "critical endpoint: instruction %d (%s)\n", latestIdx, body[latestIdx].Op)
	}
	return b.String()
}
