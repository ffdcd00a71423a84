package perfmodel

import (
	"fmt"
	"strings"
)

// Scheduler introspection: the same simulation as Schedule, but returning
// the full issue trace and a utilization summary — the tool for
// understanding *why* a kernel costs what it costs (which pipe saturates,
// how much of the window is dependence-stalled).

// IssueEvent records one instruction's passage through the model.
type IssueEvent struct {
	Iter  int // iteration index
	Index int // instruction index within the body
	Op    Op
	Issue int // cycle issued
	Done  int // cycle result available
}

// Utilization summarizes a scheduled run.
type Utilization struct {
	Cycles       int
	Instructions int
	// PipeBusy counts busy pipe-cycles per pipe kind (FP, load, store, int).
	FPBusy, LoadBusy, StoreBusy, IntBusy int
	// IPC is instructions per cycle over the run.
	IPC float64
}

// ScheduleTrace simulates iters iterations of body and returns the issue
// trace plus utilization. It is the same run as Schedule, recorded.
func (p *Profile) ScheduleTrace(body Body, iters int) ([]IssueEvent, Utilization) {
	if len(body) == 0 || iters == 0 {
		return nil, Utilization{}
	}
	total := len(body) * iters
	events := make([]IssueEvent, total)
	var util Utilization
	last := p.scheduleCore(body, iters, events, &util)
	util.Cycles = last
	util.Instructions = total
	if last > 0 {
		util.IPC = float64(total) / float64(last)
	}
	return events, util
}

// busy adds occupancy cycles to the pipe kind's busy count.
func (u *Utilization) busy(kind pipeKind, occupancy int) {
	switch kind {
	case pipeFP:
		u.FPBusy += occupancy
	case pipeLoad:
		u.LoadBusy += occupancy
	case pipeStore:
		u.StoreBusy += occupancy
	default:
		u.IntBusy += occupancy
	}
}

// Explain renders a human-readable cost breakdown of a body on this
// profile: steady-state cycles/iteration, pipe utilizations, and the
// critical few instructions with the latest completion times.
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
	// Identify the longest-latency instruction chain endpoint in a steady
	// mid-run iteration.
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
