package perfmodel

import (
	"fmt"
	"math"
	"math/bits"
)

// The windowed out-of-order scheduler. It executes N copies of a loop body
// against a Profile, modelling:
//
//   - issue width (instructions per cycle, all pipes combined),
//   - per-kind pipe counts, with FDIV/FSQRT restricted to FP pipe 0
//     (as on A64FX's FLA and Skylake's port 0),
//   - pipe occupancy (a 134-cycle blocking FSQRT holds its pipe),
//   - result latency and true data dependences, including loop-carried ones,
//   - a finite reorder window: only Window instructions may be in flight,
//     entering in program order — the small A64FX window is why Horner
//     chains hurt it more than Skylake and why unrolling pays (Sec. IV).
//
// The model is deliberately simple — no renaming limits, perfect branch
// prediction, all loads hit L1 (the paper sizes the loop suite to L1) —
// but every cycles-per-element number in Figures 1-2 and the Section IV
// table is produced by this simulation.
//
// Each simulated cycle retires completed instructions in order, admits new
// ones while the window has room, then issues ready instructions
// oldest-first up to the issue width. The core is event-driven: it keeps
// the ready instructions in a bitset (and the ones waiting on a producer's
// latency in a min-heap keyed by ready time), so a cycle costs work
// proportional to what can issue rather than to the window size, and a
// cycle in which nothing new can happen is skipped outright.

// notIssued is the done time of an instruction that has not issued. It
// compares greater than every cycle, so "done <= cycle" also means
// "issued".
const notIssued = math.MaxInt

// maxCycles bounds a run. A body the profile can issue finishes far below
// it; reaching it means the answer would be truncated.
const maxCycles = 1 << 26

// coreInstr is the run state of one dynamic instruction.
type coreInstr struct {
	done    int   // cycle the result is available; notIssued until issue
	readyAt int   // latest done time among the producers issued so far
	pending int32 // producers not yet issued
	op      uint8
}

// waiter is an entry of the wait heap: instruction g becomes ready at at.
type waiter struct {
	at int
	g  int32
}

// schedCore is one run of the scheduler over iters copies of a body.
type schedCore struct {
	p     *Profile
	body  Body
	n     int // body length
	total int // dynamic instructions: n * iters
	costs *[numOps]Cost

	// Consumers of body instruction i are cons[start[i]:start[i+1]], as
	// offsets from the start of i's iteration: j for a same-iteration
	// consumer, n+j for a consumer in the next iteration.
	start, cons []int32

	instrs []coreInstr
	ready  []uint64 // in window, producers all done
	wait   []waiter // min-heap: in window, producers issued, results not yet available
	slots  []int    // per pipe: the cycle it is free again
	kinds  [numPipeKinds + 1]int

	head, tail, cycle, issued, last int

	events []IssueEvent // nil unless tracing
	util   *Utilization // nil unless tracing
}

// Schedule simulates iters iterations of body and returns the total cycles
// until the last instruction's result is available.
//
//ookami:pure scheduler operates on local state only
func (p *Profile) Schedule(body Body, iters int) int {
	if len(body) == 0 || iters == 0 {
		return 0
	}
	return p.scheduleCore(body, iters, nil, nil)
}

// scheduleCore runs the scheduler and returns the cycle the last result is
// available. With events and util non-nil it also records every issue
// (events has one slot per dynamic instruction) and the busy pipe-cycles.
// It panics on an invalid body, on a profile that cannot issue some op of
// the body, and on a run that reaches maxCycles.
func (p *Profile) scheduleCore(body Body, iters int, events []IssueEvent, util *Utilization) int {
	if !body.Validate() {
		panic("perfmodel: invalid body")
	}
	p.checkCanIssue(body)
	s := schedCore{p: p, body: body, n: len(body), total: len(body) * iters,
		costs: p.costTab, events: events, util: util}
	if s.costs == nil {
		// A profile built outside ProfileFor gets a run-local table (never
		// cached back — Schedule stays free of shared-state writes).
		s.costs = p.buildCostTable()
	}
	s.buildConsumers()
	s.instrs = make([]coreInstr, s.total)
	for k := 0; k < iters; k++ {
		for i, ins := range body {
			pending := len(ins.Deps)
			if k > 0 {
				pending += len(ins.Carried)
			}
			s.instrs[k*s.n+i] = coreInstr{done: notIssued, pending: int32(pending),
				op: uint8(ins.Op)}
		}
	}
	s.ready = make([]uint64, (s.total+63)/64)
	s.wait = make([]waiter, 0, min(p.Window, s.total))
	for k := pipeKind(0); k < numPipeKinds; k++ {
		s.kinds[k+1] = s.kinds[k] + p.pipes(k)
	}
	s.slots = make([]int, s.kinds[numPipeKinds])

	for s.issued < s.total {
		if s.cycle >= maxCycles {
			panic(fmt.Sprintf("perfmodel: %s did not finish %d instructions within %d cycles",
				p.Name, s.total, maxCycles))
		}
		for s.instrs[s.head].done <= s.cycle {
			s.head++
		}
		for s.tail < s.total && s.tail-s.head < p.Window {
			s.enqueue(s.tail)
			s.tail++
		}
		for len(s.wait) > 0 && s.wait[0].at <= s.cycle {
			s.markReady(s.popWait())
		}
		if s.issueCycle() < p.IssueWidth {
			s.cycle = max(s.cycle+1, s.nextEvent())
		} else {
			s.cycle++
		}
	}
	return s.last
}

// checkCanIssue panics unless the profile can issue every op of body.
func (p *Profile) checkCanIssue(body Body) {
	if p.Window <= 0 {
		panic(fmt.Sprintf("perfmodel: %s has window %d; no instruction can enter it", p.Name, p.Window))
	}
	if p.IssueWidth <= 0 {
		panic(fmt.Sprintf("perfmodel: %s has issue width %d; no instruction can issue", p.Name, p.IssueWidth))
	}
	for _, ins := range body {
		if k := pipeTab[ins.Op]; p.pipes(k) <= 0 {
			panic(fmt.Sprintf("perfmodel: %s has no %s pipe to issue %s", p.Name, k, ins.Op))
		}
	}
}

// buildConsumers inverts the body's Deps and Carried lists into start/cons.
func (s *schedCore) buildConsumers() {
	n := s.n
	s.start = make([]int32, n+1)
	for _, ins := range s.body {
		for _, d := range ins.Deps {
			s.start[d+1]++
		}
		for _, c := range ins.Carried {
			s.start[c+1]++
		}
	}
	for i := 0; i < n; i++ {
		s.start[i+1] += s.start[i]
	}
	// Fill using start[i] as i's cursor; afterwards start[i] is i's end,
	// so shift it back by one slot.
	s.cons = make([]int32, s.start[n])
	for j, ins := range s.body {
		for _, d := range ins.Deps {
			s.cons[s.start[d]] = int32(j)
			s.start[d]++
		}
		for _, c := range ins.Carried {
			s.cons[s.start[c]] = int32(n + j)
			s.start[c]++
		}
	}
	copy(s.start[1:], s.start[:n])
	s.start[0] = 0
}

// enqueue files in-window instruction g once its last producer has issued:
// ready now, or waiting for that producer's latency.
func (s *schedCore) enqueue(g int) {
	in := &s.instrs[g]
	switch {
	case in.pending > 0:
	case in.readyAt <= s.cycle:
		s.markReady(g)
	default:
		s.pushWait(g)
	}
}

func (s *schedCore) markReady(g int) { s.ready[g>>6] |= 1 << (g & 63) }

// issueCycle issues ready instructions oldest-first up to the issue width
// and returns how many issued. The scan re-reads each bitset word after an
// issue, so a consumer that a 0-latency producer just made ready still
// issues this cycle, as it would in a full window scan.
func (s *schedCore) issueCycle() int {
	width := s.p.IssueWidth
	issued := 0
	for w := s.head >> 6; w <= (s.tail-1)>>6; w++ {
		word := s.ready[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if s.tryIssue(w<<6 | b) {
				if issued++; issued == width {
					return issued
				}
			}
			word = s.ready[w] &^ (1<<(b+1) - 1)
		}
	}
	return issued
}

// tryIssue issues ready instruction g if a pipe of its kind is free this
// cycle.
func (s *schedCore) tryIssue(g int) bool {
	in := &s.instrs[g]
	op := Op(in.op)
	kind := pipeTab[op]
	lo, hi := s.kinds[kind], s.kinds[kind+1]
	if op == FDIV || op == FSQRT {
		hi = lo + 1 // non-pipelined units live on pipe 0 only
	}
	slot := -1
	for p := lo; p < hi; p++ {
		if s.slots[p] <= s.cycle {
			slot = p
			break
		}
	}
	if slot < 0 {
		return false
	}
	s.ready[g>>6] &^= 1 << (g & 63)
	i := g % s.n
	c := s.costs[op]
	s.slots[slot] = s.cycle + c.Occupancy
	done := s.cycle + c.Latency
	in.done = done
	s.last = max(s.last, done)
	s.issued++
	if s.events != nil {
		s.events[g] = IssueEvent{Iter: g / s.n, Index: i, Op: op, Issue: s.cycle, Done: done}
		s.util.busy(kind, c.Occupancy)
	}
	base := g - i
	for _, off := range s.cons[s.start[i]:s.start[i+1]] {
		h := base + int(off)
		if h >= s.total {
			continue // carried into an iteration that is not run
		}
		c := &s.instrs[h]
		c.readyAt = max(c.readyAt, done)
		c.pending--
		if c.pending == 0 && h < s.tail {
			s.enqueue(h)
		}
	}
	return true
}

// nextEvent is the earliest future cycle at which a cycle with free issue
// slots can change: a waiting instruction becomes ready, the head retires
// (admitting more), or a busy pipe frees. notIssued if there is none.
func (s *schedCore) nextEvent() int {
	next := s.instrs[s.head].done
	if len(s.wait) > 0 {
		next = min(next, s.wait[0].at)
	}
	for _, free := range s.slots {
		if free > s.cycle {
			next = min(next, free)
		}
	}
	return next
}

// pushWait and popWait maintain the wait heap, earliest ready time on top.
func (s *schedCore) pushWait(g int) {
	w := waiter{at: s.instrs[g].readyAt, g: int32(g)}
	s.wait = append(s.wait, w)
	j := len(s.wait) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if s.wait[parent].at <= w.at {
			break
		}
		s.wait[j] = s.wait[parent]
		j = parent
	}
	s.wait[j] = w
}

func (s *schedCore) popWait() int {
	top := s.wait[0].g
	last := s.wait[len(s.wait)-1]
	s.wait = s.wait[:len(s.wait)-1]
	n := len(s.wait)
	if n == 0 {
		return int(top)
	}
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && s.wait[c+1].at < s.wait[c].at {
			c++
		}
		if s.wait[c].at >= last.at {
			break
		}
		s.wait[j] = s.wait[c]
		j = c
	}
	s.wait[j] = last
	return int(top)
}

// CyclesPerIter returns the steady-state cycles per loop iteration,
// measured by differencing two long runs to cancel fill/drain effects.
//
//ookami:pure
func (p *Profile) CyclesPerIter(body Body) float64 {
	const k = 64
	t1 := p.Schedule(body, k)
	t2 := p.Schedule(body, 2*k)
	return float64(t2-t1) / float64(k)
}

// CyclesPerElement is CyclesPerIter divided by the number of elements one
// iteration processes (vector lanes x unroll factor).
//
//ookami:pure
func (p *Profile) CyclesPerElement(body Body, elemsPerIter int) float64 {
	if elemsPerIter <= 0 {
		panic("perfmodel: elemsPerIter must be positive")
	}
	return p.CyclesPerIter(body) / float64(elemsPerIter)
}

// SecondsFor converts a cycles-per-element figure into runtime for n
// elements at the profile's clock.
//
//ookami:pure
func (p *Profile) SecondsFor(cyclesPerElem float64, n int) float64 {
	return cyclesPerElem * float64(n) / (p.ClockGHz * 1e9)
}
