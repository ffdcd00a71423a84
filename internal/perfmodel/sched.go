package perfmodel

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// the ready instructions in bitsets, one per issue class and one for their
// union (and the ones waiting on a producer's latency in a min-heap keyed
// by ready time), so a cycle costs work proportional to what can issue
// rather than to the window size or to the ready instructions whose pipes
// are busy, and a cycle in which nothing new can happen is skipped
// outright. Only the instructions from the window to the reach of its
// consumers are live, so their state sits in a ring of a few hundred
// entries, whatever the iteration count.
//
// Schedule also skips the periodic steady state. The core is
// deterministic, so once its state at the start of an iteration, taken
// relative to that iteration's first instruction and the current cycle,
// repeats after P iterations and D cycles, every later stretch of P
// iterations is the same stretch shifted by D cycles. Schedule detects the
// repeat Brent-style (it saves the state at the 1st, 2nd, 4th, 8th, ...
// iteration boundary and compares each later one against it), then jumps
// over as many whole periods as leave the end of the run — where the
// window and the carried dependences reach the last iteration — to be
// simulated for real. The answer is bit-identical to the full run.
// CyclesPerIter runs the prefix its 64- and 128-iteration runs share only
// once. A Scheduler reads a body's utilization and critical instruction
// off that same pair of runs, on buffers it keeps from one body to the
// next.

// notIssued is the done time of an instruction that has not issued. It
// compares greater than every cycle, so "done <= cycle" also means
// "issued".
const notIssued = math.MaxInt32

// maxCycles bounds a run. A body the profile can issue finishes far below
// it; reaching it means the answer would be truncated. It is far below
// math.MaxInt32, so the ring, the wait heap and observe's states hold
// cycles as int32: 16 bytes per ring entry instead of 24, half the bytes
// per state.
const maxCycles = 1 << 26

// coreInstr is the run state of one dynamic instruction.
type coreInstr struct {
	done    int32 // cycle the result is available; notIssued until issue
	readyAt int32 // latest done time among the producers issued so far
	pending int32 // producers not yet issued
	op      uint8
	class   uint8 // issueClass(op)
}

// An issue class is a set of ops that compete for the same pipes: one
// class per pipe kind, except that FDIV and FSQRT, which issue to FP pipe
// 0 only, form a class of their own. A pipe's free time only grows within
// a cycle, so once an op finds every pipe of its class busy, no op of the
// class can issue for the rest of the cycle.
const numClasses = int(numPipeKinds) + 1

// readyRow is the number of ready words per 64 instructions: one per issue
// class and, last, their union.
const readyRow = numClasses + 1

func issueClass(op Op) uint8 {
	if op == FDIV || op == FSQRT {
		return uint8(numPipeKinds)
	}
	return uint8(pipeTab[op])
}

// waiter is an entry of the wait heap: instruction g becomes ready at at.
type waiter struct {
	at int32
	g  int32
}

// coreBuffers are the slices a run owns. reset and forkFrom keep them, so
// a Scheduler's runs allocate only when a body needs more room than the
// bodies before it.
type coreBuffers struct {
	instrs []coreInstr
	ready  []uint64
	wait   []waiter
	slots  []int
	state  []int32      // cur and saved, side by side
	events []IssueEvent // the kept issues
}

// schedCore is one run of the scheduler over iters copies of a body.
type schedCore struct {
	coreBuffers

	p     *Profile
	body  Body
	n     int // body length
	total int // dynamic instructions: n * iters
	costs *[numOps]Cost

	// Consumers of body instruction i are cons[start[i]:start[i+1]], as
	// offsets from the start of i's iteration: j for a same-iteration
	// consumer, n+j for a consumer in the next iteration.
	start, cons []int32

	// Instruction g lives in instrs[g&mask], its ready bits in row
	// g>>6&wmask of ready, readyRow words wide. The ring covers head's row
	// up to head+Window+2n, the furthest the window's consumers reach, so
	// no live instruction or ready bit shares a slot with another. filled
	// is one past the last instruction put in the ring. ready marks the
	// instructions in the window whose producers are all done; wait is a
	// min-heap of those whose producers have issued but whose results are
	// not yet available; slots holds, per pipe, the cycle it is free again.
	mask, wmask int
	filled      int
	kinds       [numPipeKinds + 1]int

	head, tail, cycle, issued, last int

	// forkAt stops run at the first loop top from which the next step
	// could touch instruction forkAt: the end of the prefix that
	// CyclesPerIter's two runs share. math.MaxInt otherwise.
	forkAt int

	// The issue of instruction keep+k is recorded in events[k]. No jump
	// of the steady-state skip covers one of them.
	keep int

	// The steady-state skip (see observe): the first instruction of the
	// next loop top at which observe runs (math.MaxInt once it has
	// nothing left to do), the boundaries seen, the state saved at one of
	// them (with its iteration and cycle) and scratch for the current
	// one. Once a repeat is found, period and periodCycles are its length
	// in instructions and cycles. skipped counts the instructions this
	// run did not simulate.
	next                 int
	seen                 int
	saved, cur           []int32
	savedIter, savedAt   int
	period, periodCycles int
	skipped              int
}

// Schedule simulates iters iterations of body and returns the total cycles
// until the last instruction's result is available.
//
//ookami:pure scheduler operates on local state only
func (p *Profile) Schedule(body Body, iters int) int {
	cycles, _ := p.schedule(body, iters)
	return cycles
}

// schedule is Schedule that also returns how many of the iterations were
// simulated rather than skipped.
func (p *Profile) schedule(body Body, iters int) (cycles, simulated int) {
	if !runnable(body, iters) {
		return 0, 0
	}
	var s schedCore
	s.reset(p, body, iters)
	s.run()
	return s.last, s.simulated()
}

// runnable reports whether iters iterations of body hold an instruction to
// schedule. It panics on a negative count.
func runnable(body Body, iters int) bool {
	if iters < 0 {
		panic(fmt.Sprintf("perfmodel: negative iteration count %d", iters))
	}
	return len(body) > 0 && iters > 0
}

// reset sets s up for a run of iters iterations of a non-empty body that
// skips the periodic steady state and records no issue, on s's buffers.
// It panics on an invalid body and on a profile that cannot issue some op
// of the body.
func (s *schedCore) reset(p *Profile, body Body, iters int) {
	if !body.Validate() {
		panic("perfmodel: invalid body")
	}
	p.checkCanIssue(body)
	*s = schedCore{coreBuffers: s.coreBuffers, start: s.start, cons: s.cons,
		p: p, body: body, n: len(body), total: len(body) * iters, costs: p.costTab, forkAt: math.MaxInt}
	if s.costs == nil {
		// A profile built outside ProfileFor gets a run-local table (never
		// cached back — Schedule stays free of shared-state writes).
		s.costs = p.buildCostTable()
	}
	s.buildConsumers()
	s.makeRing()
	s.wait = resize(s.wait, min(p.Window, s.total))[:0]
	for k := pipeKind(0); k < numPipeKinds; k++ {
		s.kinds[k+1] = s.kinds[k] + p.pipes(k)
	}
	s.slots = resize(s.slots, s.kinds[numPipeKinds])
	s.events = s.events[:0]
	s.stateBuffers(nil)
	s.fill(s.reach())
}

// resize returns buf with n zero elements, reusing its array when it has
// room.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// makeRing sets up an empty ring for the run. It spans at least 64 slots
// (one bitset word) beyond the live range: at most Window+2n
// instructions, or total if that is fewer.
func (s *schedCore) makeRing() {
	size := 1 << bits.Len(uint(min(s.total, s.p.Window+2*s.n)+63))
	s.instrs = resize(s.instrs, size)
	s.ready = resize(s.ready, size/64*readyRow)
	s.mask, s.wmask = size-1, size/64-1
}

// run simulates until every instruction has issued, or until forkAt stops
// it; it panics on reaching maxCycles.
func (s *schedCore) run() {
	p := s.p
	for s.issued < s.total {
		if s.cycle >= maxCycles {
			panic(fmt.Sprintf("perfmodel: %s did not finish %d instructions within %d cycles",
				p.Name, s.total, maxCycles))
		}
		for int(s.instrs[s.head&s.mask].done) <= s.cycle {
			s.head++
		}
		if s.head >= s.next {
			s.observe()
		}
		if s.head+p.Window+2*s.n > s.forkAt {
			return
		}
		s.fill(s.reach())
		for s.tail < s.total && s.tail-s.head < p.Window {
			s.enqueue(s.tail)
			s.tail++
		}
		for len(s.wait) > 0 && int(s.wait[0].at) <= s.cycle {
			s.markReady(s.popWait())
		}
		if s.issueCycle() < p.IssueWidth {
			s.cycle = max(s.cycle+1, s.nextEvent())
		} else {
			s.cycle++
		}
	}
}

// reach is one past the furthest instruction the next step can touch: the
// window's end once it fills, plus the 2n its consumers reach past that.
func (s *schedCore) reach() int { return min(s.total, s.head+s.p.Window+2*s.n) }

// simulated is how many iterations the run simulated: all but the skipped
// ones, counting a partly simulated iteration as simulated.
func (s *schedCore) simulated() int { return (s.total - s.skipped + s.n - 1) / s.n }

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
	s.start = resize(s.start, n+1)
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
	s.cons = resize(s.cons, int(s.start[n]))
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

// fill puts instructions up to lim in the ring, not issued and waiting on
// all their producers.
func (s *schedCore) fill(lim int) {
	for ; s.filled < lim; s.filled++ {
		g := s.filled
		ins := &s.body[g%s.n]
		pending := len(ins.Deps)
		if g >= s.n {
			pending += len(ins.Carried)
		}
		s.instrs[g&s.mask] = coreInstr{done: notIssued, pending: int32(pending), op: uint8(ins.Op), class: issueClass(ins.Op)}
	}
}

// enqueue files in-window instruction g once its last producer has issued:
// ready now, or waiting for that producer's latency.
func (s *schedCore) enqueue(g int) {
	in := &s.instrs[g&s.mask]
	switch {
	case in.pending > 0:
	case int(in.readyAt) <= s.cycle:
		s.markReady(g)
	default:
		s.pushWait(g)
	}
}

// markReady and clearReady set and clear g's ready bit in the word of its
// issue class and in the union.
func (s *schedCore) markReady(g int) {
	row, bit := (g>>6&s.wmask)*readyRow, uint64(1)<<(g&63)
	s.ready[row+int(s.instrs[g&s.mask].class)] |= bit
	s.ready[row+numClasses] |= bit
}

func (s *schedCore) clearReady(g int) {
	row, bit := (g>>6&s.wmask)*readyRow, uint64(1)<<(g&63)
	s.ready[row+int(s.instrs[g&s.mask].class)] &^= bit
	s.ready[row+numClasses] &^= bit
}

func (s *schedCore) isReady(g int) bool {
	return s.ready[(g>>6&s.wmask)*readyRow+numClasses]>>(g&63)&1 != 0
}

// issueCycle issues ready instructions oldest-first up to the issue width
// and returns how many issued. Once an instruction finds no free pipe, the
// scan skips the rest of its issue class. It re-reads the bitset words
// after each attempt, so a consumer that a 0-latency producer just made
// ready still issues this cycle, as it would in a full window scan.
func (s *schedCore) issueCycle() int {
	width := s.p.IssueWidth
	issued := 0
	full := 0 // bit c: issue class c has no free pipe left this cycle
	for w := s.head >> 6; w <= (s.tail-1)>>6; w++ {
		row := s.ready[(w&s.wmask)*readyRow:][:readyRow]
		word := readyIn(row, full)
		for word != 0 {
			b := bits.TrailingZeros64(word)
			g := w<<6 | b
			if !s.tryIssue(g) {
				full |= 1 << s.instrs[g&s.mask].class
			} else if issued++; issued == width {
				return issued
			}
			word = readyIn(row, full) &^ (1<<(b+1) - 1)
		}
	}
	return issued
}

// readyIn is row's ready bits less those of the issue classes in full.
func readyIn(row []uint64, full int) uint64 {
	word := row[numClasses]
	for ; full != 0; full &= full - 1 {
		word &^= row[bits.TrailingZeros(uint(full))]
	}
	return word
}

// tryIssue issues ready instruction g if a pipe of its kind is free this
// cycle.
func (s *schedCore) tryIssue(g int) bool {
	in := &s.instrs[g&s.mask]
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
	s.clearReady(g)
	i := g % s.n
	c := s.costs[op]
	s.slots[slot] = s.cycle + c.Occupancy
	done := s.cycle + c.Latency
	in.done = int32(done)
	s.last = max(s.last, done)
	s.issued++
	if k := g - s.keep; k >= 0 && k < len(s.events) {
		s.events[k] = IssueEvent{Iter: g / s.n, Index: i, Op: op, Issue: s.cycle, Done: done}
	}
	base := g - i
	for _, off := range s.cons[s.start[i]:s.start[i+1]] {
		h := base + int(off)
		if h >= s.total {
			continue // carried into an iteration that is not run
		}
		c := &s.instrs[h&s.mask]
		c.readyAt = max(c.readyAt, int32(done))
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
	next := int(s.instrs[s.head&s.mask].done)
	if len(s.wait) > 0 {
		next = min(next, int(s.wait[0].at))
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
	w := waiter{at: s.instrs[g&s.mask].readyAt, g: int32(g)}
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

// observe runs at the first loop top, after retirement, at which head has
// reached next. While no repeat is known, next is the first instruction of
// the iteration after head's, and observe takes the run's state relative
// to the first instruction b of head's iteration and the current cycle,
// and on a repeat of the saved state jumps ahead by whole periods. The
// state is
//   - head and tail, less b;
//   - last and each pipe's free time, less the cycle and clamped at 0
//     (every time at or before the cycle behaves the same);
//   - for each instruction from head up to end = tail+2n (the furthest a
//     window instruction's carried consumers reach; beyond it every
//     instruction is untouched): its done time (-1 if not issued),
//     readyAt clamped the same way, pending count and ready bit.
//
// The wait heap needs no entry of its own: it holds exactly the window
// instructions that are not issued, not ready and have no pending
// producer, each at its readyAt, which is never before the cycle at a
// loop top. Every due entry is popped in the same step, so the heap's
// layout does not matter either.
//
// Once a repeat is known, next is the end of the kept instructions if
// head has not passed them yet (skipAhead stops short of them), and
// observe makes the rest of the jump there.
func (s *schedCore) observe() {
	if s.period > 0 {
		s.next = math.MaxInt
		s.skipAhead()
		return
	}
	k := s.head / s.n
	b := k * s.n
	s.next = b + s.n
	end := s.tail + 2*s.n
	if end > min(s.total, s.forkAt)-s.n {
		return // too close to the end for a jump of even one iteration
	}
	s.seen++
	s.cur = s.appendHeader(s.cur[:0], b)
	if s.repeats(end) {
		s.period, s.periodCycles = (k-s.savedIter)*s.n, s.cycle-s.savedAt
		s.next = math.MaxInt
		if s.head < s.keep+len(s.events) {
			s.next = s.keep + len(s.events)
		}
		s.skipAhead()
		return
	}
	if s.seen&(s.seen-1) == 0 {
		s.saved = s.appendState(s.saved[:0], b)
		s.savedIter, s.savedAt = k, s.cycle
	}
}

// appendHeader appends the scalar part of observe's state, with head and
// tail taken relative to instruction b.
func (s *schedCore) appendHeader(dst []int32, b int) []int32 {
	dst = append(dst, int32(s.head-b), int32(s.tail-b), int32(max(s.last-s.cycle, 0)))
	for _, free := range s.slots {
		dst = append(dst, int32(max(free-s.cycle, 0)))
	}
	return dst
}

// appendState appends observe's state, with indices taken relative to
// instruction b.
func (s *schedCore) appendState(dst []int32, b int) []int32 {
	dst = s.appendHeader(dst, b)
	for g := s.head; g < s.tail+2*s.n; g++ {
		v := s.instrState(g)
		dst = append(dst, v[:]...)
	}
	return dst
}

// instrState is observe's state of instruction g.
func (s *schedCore) instrState(g int) [3]int32 {
	in := &s.instrs[g&s.mask]
	cycle := int32(s.cycle)
	done := int32(-1)
	if in.done != notIssued {
		done = max(in.done-cycle, 0)
	}
	ready := int32(0)
	if s.isReady(g) {
		ready = 1
	}
	return [3]int32{done, max(in.readyAt-cycle, 0), in.pending<<1 | ready}
}

// repeats reports whether the state at this boundary, whose header is in
// cur and whose instructions run up to end, equals the saved one. It stops
// at the first difference.
func (s *schedCore) repeats(end int) bool {
	h := len(s.cur)
	if len(s.saved) != h+3*(end-s.head) || !slices.Equal(s.cur, s.saved[:h]) {
		return false
	}
	for g, i := s.head, h; g < end; g, i = g+1, i+3 {
		if s.instrState(g) != [3]int32(s.saved[i:i+3]) {
			return false
		}
	}
	return true
}

// skipAhead jumps over as many whole periods as keep end — and with it
// every boundary effect (tail reaching total, consumers past total) and
// the fork point — in the part of the run simulated for real. Until head
// passes the kept instructions, the jump also ends before them, so each
// of them issues in the simulation and is recorded. The state at every
// loop top after a repeat recurs one period later, so it may run at any
// loop top.
func (s *schedCore) skipAhead() {
	if s.period == 0 {
		return
	}
	m := (min(s.total, s.forkAt) - (s.tail + 2*s.n)) / s.period
	if s.head < s.keep+len(s.events) {
		m = min(m, (s.keep-s.tail)/s.period)
	}
	if m > 0 {
		s.jump(m*s.period, m*s.periodCycles)
	}
}

// jump moves the run di instructions (whole iterations) and dc cycles
// ahead, to the state the full run reaches there: the current one,
// shifted.
func (s *schedCore) jump(di, dc int) {
	s.cur = s.appendState(s.cur[:0], s.head)
	clear(s.ready) // every ready bit is in the window; restore sets them anew
	s.restore(s.cur, s.head+di, s.cycle+dc)
	s.skipped += di
}

// restore sets the run to state st, as appendState encoded it, placed at
// instruction b and the given cycle. It rebuilds the wait heap from the
// instructions, as observe describes.
func (s *schedCore) restore(st []int32, b, cycle int) {
	s.cycle = cycle
	s.head, s.tail, s.last = b+int(st[0]), b+int(st[1]), cycle+int(st[2])
	for p := range s.slots {
		s.slots[p] = cycle + int(st[3+p])
	}
	s.issued = s.head
	s.wait = s.wait[:0]
	h := 3 + len(s.slots)
	s.filled = s.head
	s.fill(s.head + (len(st)-h)/3)
	for j, g := h, s.head; j < len(st); j, g = j+3, g+1 {
		in := &s.instrs[g&s.mask]
		in.readyAt, in.pending = int32(cycle)+st[j+1], st[j+2]>>1
		if st[j] >= 0 {
			in.done = int32(cycle) + st[j]
			s.issued++
		}
		switch {
		case st[j+2]&1 != 0:
			s.markReady(g)
		case g < s.tail && in.pending == 0 && in.done == notIssued:
			s.pushWait(g)
		}
	}
}

// stateBuffers points cur and saved at s.state, each with room for the
// largest state, with cur empty and saved holding a copy of the given
// state.
func (s *schedCore) stateBuffers(saved []int32) {
	size := 3 + len(s.slots) + 3*(min(s.p.Window, s.total)+2*s.n)
	s.state = resize(s.state, 2*size)
	s.cur, s.saved = s.state[:0:size], append(s.state[size:size], saved...)
}

// forkFrom makes t a copy of run s, stopped at its fork point, that runs
// iters iterations instead and records no issue, on t's own buffers. The
// copy counts the shared prefix as skipped.
func (t *schedCore) forkFrom(s *schedCore, iters int) {
	bufs := t.coreBuffers
	*t = *s
	t.coreBuffers = bufs
	t.total = iters * s.n
	t.makeRing()
	for g := s.head; g < s.filled; g++ {
		t.instrs[g&t.mask] = s.instrs[g&s.mask]
	}
	for g := s.head; g < s.tail; g++ {
		if s.isReady(g) {
			t.markReady(g)
		}
	}
	t.wait = append(resize(t.wait, cap(s.wait))[:0], s.wait...)
	t.slots = append(t.slots[:0], s.slots...)
	t.events = t.events[:0]
	t.stateBuffers(s.saved)
	t.fill(t.reach()) // s filled only up to its own total
	t.forkAt = math.MaxInt
	if t.period > 0 {
		t.next = math.MaxInt // the caller jumps
	}
	t.skipped = s.head
}

// cpiIters is the length of CyclesPerIter's shorter run; the longer one
// runs twice as many iterations.
const cpiIters = 64

// CyclesPerIter returns the steady-state cycles per loop iteration,
// measured by differencing two long runs to cancel fill/drain effects.
//
//ookami:pure
func (p *Profile) CyclesPerIter(body Body) float64 {
	var sc Scheduler
	return sc.cyclesPerIter(p, body, false)
}

// Scheduler runs CyclesPerIter's two runs on buffers it keeps from one
// body to the next: the rings, wait heaps, pipe slots and steady-state
// buffers of the 64-iteration run and of the 128-iteration run forked
// from it. The zero value is ready to use. A Scheduler must not be used
// by two goroutines at once.
type Scheduler struct {
	short, long schedCore
}

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

// SteadyState is what one CyclesPerIter run of a body reads off it.
type SteadyState struct {
	CyclesPerIter float64
	// Util summarizes the 64-iteration run.
	Util Utilization
	// Critical is the body index of the instruction whose result is
	// available last in iteration 32 of that run, the lowest index on a
	// tie; -1 for an empty body.
	Critical int
}

// SteadyState runs CyclesPerIter's schedule of body on p and returns its
// rate together with the 64-iteration run's utilization and critical
// instruction. It simulates the same runs as CyclesPerIter, except that
// the steady-state skip does not jump over iteration 32.
func (sc *Scheduler) SteadyState(p *Profile, body Body) SteadyState {
	st := SteadyState{CyclesPerIter: sc.cyclesPerIter(p, body, true), Critical: -1}
	if len(body) == 0 {
		return st
	}
	st.Util = sc.short.utilization(cpiIters)
	latest := -1
	for _, e := range sc.short.events {
		if e.Done > latest {
			latest, st.Critical = e.Done, e.Index
		}
	}
	return st
}

// cyclesPerIter runs the 64- and 128-iteration runs of body and returns
// the difference of their cycles per iteration. The runs are identical
// until the shorter one's window and consumers reach its end, so the
// longer one is forked from it there. With keepMid the shorter run
// records the issues of iteration 32.
func (sc *Scheduler) cyclesPerIter(p *Profile, body Body, keepMid bool) float64 {
	if len(body) == 0 {
		return 0
	}
	short, long := &sc.short, &sc.long
	short.reset(p, body, cpiIters)
	if keepMid {
		short.keep = cpiIters / 2 * short.n
		short.events = resize(short.events, short.n)
	}
	short.forkAt = short.total
	short.run()
	long.forkFrom(short, 2*cpiIters)
	short.forkAt = math.MaxInt
	short.run()
	long.skipAhead()
	long.run()
	return float64(long.last-short.last) / cpiIters
}

// utilization summarizes a finished run of iters iterations. Every
// instruction issues once and holds its pipe for its occupancy, so the
// busy pipe-cycles do not depend on the schedule.
func (s *schedCore) utilization(iters int) Utilization {
	u := Utilization{Cycles: s.last, Instructions: s.total}
	for _, ins := range s.body {
		u.busy(pipeTab[ins.Op], iters*s.costs[ins.Op].Occupancy)
	}
	if s.last > 0 {
		u.IPC = float64(s.total) / float64(s.last)
	}
	return u
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
