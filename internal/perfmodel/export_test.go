package perfmodel

// ScheduleSim is Schedule that also returns how many of the iterations were
// simulated rather than skipped as repeats of the steady state.
func (p *Profile) ScheduleSim(body Body, iters int) (cycles, simulated int) {
	return p.schedule(body, iters)
}

// CyclesPerIterSim is CyclesPerIter that also returns how many iterations
// its two runs simulated between them.
func (p *Profile) CyclesPerIterSim(body Body) (cpi float64, simulated int) {
	return p.cyclesPerIter(body)
}
