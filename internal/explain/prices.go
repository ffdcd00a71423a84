package explain

import (
	"slices"

	"ookami/internal/machine"
	"ookami/internal/perfmodel"
	"ookami/internal/toolchain"
)

// PairPrices is the price table of one (toolchain, machine) pair: the
// Explain result of every loop in AllLoops, plus the pair's math-cost
// map read off the five math-loop entries. These are the only parts of
// a prediction that compile and schedule. Thread and element counts
// enter afterwards as closed-form arithmetic, the way ECM splits a
// kernel into an in-core term priced once and data-transfer terms that
// scale with the working set. A table is never written after PricePair
// returns, so it is safe for concurrent use.
type PairPrices struct {
	tc    toolchain.Toolchain
	m     machine.Machine
	loops []loopPrice // parallel to AllLoops
	math  map[perfmodel.MathFn]float64
}

// loopPrice is one loop's Explain answer, error included: a pair that
// Explain rejects keeps its error for every loop.
type loopPrice struct {
	r   Result
	err error
}

// PricePair prices every loop of AllLoops for tc on m: 11 compiles and
// schedules, the whole in-core cost of every prediction on the pair. The
// 11 schedules run on one perfmodel.Scheduler's buffers. On a 2-vCPU
// Xeon the 7 tables of the resolved pairs take about 20 ms together
// (BenchmarkPricePair), under 3 ms a table on average.
//
//ookami:pure compiles and schedules fresh bodies into a fresh table
func PricePair(tc toolchain.Toolchain, m machine.Machine) *PairPrices {
	t := &PairPrices{tc: tc, m: m, loops: make([]loopPrice, len(AllLoops))}
	var sc perfmodel.Scheduler
	for i, l := range AllLoops {
		r, err := explainOn(&sc, tc, l, m)
		t.loops[i] = loopPrice{r: r, err: err}
	}
	t.math = MathCost(m, func(l toolchain.Loop) float64 {
		return t.loops[loopIndex(l)].r.cyclesPerElem()
	})
	return t
}

// Predict answers req from the table with no compile or schedule: the
// same answer, and the same bytes once marshaled, as Predict(req). req
// must resolve to the table's pair; a request for another pair is an
// error.
//
//ookami:pure closed-form arithmetic over the read-only table
func (t *PairPrices) Predict(req Request) (Prediction, error) {
	return predict(req, t)
}

// covers reports whether the table prices tc on m.
func (t *PairPrices) covers(tc toolchain.Toolchain, m machine.Machine) bool {
	return tc.Name == t.tc.Name && tc.Version == t.tc.Version && m.Name == t.m.Name
}

// loop returns loop l's Explain answer. The report and breakdown are
// copies, so a caller that edits its Prediction cannot edit the table.
func (t *PairPrices) loop(l toolchain.Loop) (Result, error) {
	p := t.loops[loopIndex(l)]
	r := p.r
	r.Report = slices.Clone(r.Report)
	if r.Breakdown != nil {
		b := *r.Breakdown
		r.Breakdown = &b
	}
	return r, p.err
}

// loopIndex is l's position in AllLoops. l must be one of them: FindLoop
// and the math loops only ever name those.
//
//ookami:pure read-only scan of the loop list
func loopIndex(l toolchain.Loop) int {
	for i, al := range AllLoops {
		if al == l {
			return i
		}
	}
	return -1
}

// cyclesPerElem is the loop's modeled cycles/element: the schedule's
// steady-state rate when vectorized, the serial library cost otherwise.
// It is what CompiledLoop.CyclesPerElement returns for the same compile.
func (r Result) cyclesPerElem() float64 {
	if r.Vectorized {
		return r.Breakdown.CyclesPerElem
	}
	return r.SerialCyclesPerElem
}
