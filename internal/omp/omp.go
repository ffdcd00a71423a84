// Package omp is a small OpenMP-like runtime: parallel-for over index
// ranges with static, chunked, dynamic and guided schedules, reductions,
// and a page-placement tracker that reproduces the Section V data-placement
// story (the Fujitsu compiler's default "allocate everything on CMG 0"
// versus first-touch).
//
// The runtime executes with real goroutines and is used by the NPB, LULESH
// and HPCC implementations; the performance *model* for placement lives in
// internal/perfmodel, while this package provides the functional behaviour
// and the measured placement distributions.
package omp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ookami/internal/trace"
)

// Schedule selects how iterations are divided among threads.
type Schedule int

const (
	// Static divides the range into one contiguous block per thread.
	Static Schedule = iota
	// StaticChunk deals fixed-size chunks round-robin.
	StaticChunk
	// Dynamic hands out chunks on demand.
	Dynamic
	// Guided hands out geometrically shrinking chunks.
	Guided
)

// String names the schedule as it appears in traces and test output.
func (s Schedule) String() string {
	switch s {
	case Static:
		return "Static"
	case StaticChunk:
		return "StaticChunk"
	case Dynamic:
		return "Dynamic"
	case Guided:
		return "Guided"
	}
	return "Schedule(?)"
}

// Team is a reusable group of worker threads of fixed size.
type Team struct {
	n int
}

// NewTeam creates a team of n threads. n <= 0 selects GOMAXPROCS.
func NewTeam(n int) *Team {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Team{n: n}
}

// Size returns the number of threads in the team.
func (t *Team) Size() int { return t.n }

// Parallel runs fn(tid) once on every team member concurrently and waits
// for all of them (an omp parallel region).
func (t *Team) Parallel(fn func(tid int)) {
	rt := beginRegion(trace.NameParallel, 0, 0, t.n, t.n)
	t.run(t.n, func(tid int) {
		w := rt.worker(tid)
		fn(tid)
		w.end()
	})
	rt.end()
}

// run executes fn(tid) for every tid in [0, workers) and waits for all
// of them — the untraced spawning core shared by Parallel and the
// worksharing schedules (which clamp workers below the team size when
// the range is smaller than the team). A lone worker runs on the
// calling goroutine; otherwise each tid gets a fresh goroutine.
func (t *Team) run(workers int, fn func(tid int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for tid := 0; tid < workers; tid++ {
		go func(id int) {
			defer wg.Done()
			fn(id)
		}(tid)
	}
	wg.Wait()
}

// For executes fn(i) for every i in [lo, hi) using the schedule, with the
// given chunk size (ignored by Static; defaulted sensibly if <= 0).
func (t *Team) For(lo, hi int, sched Schedule, chunk int, fn func(i int)) {
	t.ForRange(lo, hi, sched, chunk, func(a, b int) {
		for i := a; i < b; i++ {
			fn(i)
		}
	})
}

// ForRange is like For but hands each thread whole [a, b) blocks — the
// form the kernels use so that inner loops stay vectorizable.
//
// The worker count is clamped to min(team size, iterations): a large
// team over a tiny range spawns one goroutine per iteration at most,
// instead of t.n goroutines that wake only to find the range exhausted.
func (t *Team) ForRange(lo, hi int, sched Schedule, chunk int, fn func(a, b int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	workers := t.n
	if workers > n {
		workers = n
	}
	rt := beginRegion(trace.NameFor, sched, lo, n, workers)
	switch sched {
	case Static:
		t.run(workers, func(tid int) {
			w := rt.worker(tid)
			a, b := StaticSlice(lo, hi, tid, workers)
			if a < b {
				w.grant(a, b)
				fn(a, b)
			}
			w.end()
		})
	case StaticChunk:
		c := chunkOrDefault(chunk, n, workers)
		t.run(workers, func(tid int) {
			w := rt.worker(tid)
			for a := lo + tid*c; a < hi; a += workers * c {
				b := a + c
				if b > hi {
					b = hi
				}
				w.grant(a, b)
				fn(a, b)
			}
			w.end()
		})
	case Dynamic:
		c := chunkOrDefault(chunk, n, workers*8)
		var next int64 = int64(lo)
		t.run(workers, func(tid int) {
			w := rt.worker(tid)
			for {
				a, b, ok := grabChunk(&next, int64(hi), int64(c))
				if !ok {
					break
				}
				w.grant(a, b)
				fn(a, b)
			}
			w.end()
		})
	case Guided:
		var mu sync.Mutex
		pos := lo
		minChunk := chunkOrDefault(chunk, 1, 1)
		t.run(workers, func(tid int) {
			w := rt.worker(tid)
			for {
				mu.Lock()
				if pos >= hi {
					mu.Unlock()
					break
				}
				c := (hi - pos) / (2 * workers)
				if c < minChunk {
					c = minChunk
				}
				a := pos
				b := a + c
				if b > hi {
					b = hi
				}
				pos = b
				mu.Unlock()
				w.grant(a, b)
				fn(a, b)
			}
			w.end()
		})
	default:
		panic("omp: unknown schedule")
	}
	rt.end()
}

// StaticSlice returns thread tid's block [a, b) of [lo, hi) split
// statically among workers threads: contiguous blocks in tid order whose
// lengths differ by at most one. It is the block the Static schedule,
// ReduceSum and ReduceMax hand thread tid, so a parallel region that
// splits its own loops with it partitions them exactly as those do.
func StaticSlice(lo, hi, tid, workers int) (a, b int) {
	n := hi - lo
	return lo + tid*n/workers, lo + (tid+1)*n/workers
}

// grabChunk claims the next [a, b) block from the shared Dynamic-
// schedule cursor. A compare-and-swap loop clamps the cursor at hi, so
// it never advances past the range: the old fetch-and-add version kept
// incrementing the cursor on every exhausted-range probe, which let
// chunk*workers overshoot wrap int64 and hand out chunks from bogus
// (even negative) offsets.
func grabChunk(next *int64, hi, c int64) (a, b int, ok bool) {
	for {
		cur := atomic.LoadInt64(next)
		if cur >= hi {
			return 0, 0, false
		}
		nxt := cur + c
		if nxt > hi || nxt < cur { // nxt < cur: int64 overflow on a huge chunk
			nxt = hi
		}
		if atomic.CompareAndSwapInt64(next, cur, nxt) {
			return int(cur), int(nxt), true
		}
	}
}

func chunkOrDefault(chunk, n, parts int) int {
	if chunk > 0 {
		return chunk
	}
	c := n / parts
	if c < 1 {
		c = 1
	}
	return c
}

// ReduceSum runs fn over [lo, hi) statically partitioned and returns the
// sum of the per-thread partial results (an omp reduction(+)). The
// summation order is deterministic: partials are combined in thread order.
func (t *Team) ReduceSum(lo, hi int, fn func(a, b int) float64) float64 {
	partial := make([]float64, t.n)
	n := hi - lo
	if n <= 0 {
		return 0
	}
	t.Parallel(func(tid int) {
		a, b := StaticSlice(lo, hi, tid, t.n)
		if a < b {
			partial[tid] = fn(a, b)
		}
	})
	sum := 0.0
	for _, p := range partial {
		sum += p
	}
	return sum
}

// ReduceMax is the max-reduction analogue of ReduceSum. It returns the
// maximum of the per-thread results; the identity for an empty range is
// -Inf supplied by the caller's fn semantics (fn is never called then and
// 0 is returned).
func (t *Team) ReduceMax(lo, hi int, fn func(a, b int) float64) float64 {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	partial := make([]float64, t.n)
	has := make([]bool, t.n)
	t.Parallel(func(tid int) {
		a, b := StaticSlice(lo, hi, tid, t.n)
		if a < b {
			partial[tid] = fn(a, b)
			has[tid] = true
		}
	})
	var best float64
	first := true
	for i, p := range partial {
		if !has[i] {
			continue
		}
		if first || p > best {
			best = p
			first = false
		}
	}
	return best
}

// Barrier is a reusable synchronization barrier for n participants.
// Arrivals are counted atomically. A waiter first polls the phase, and
// only when the phase has not moved within barrierSpins polls does it
// park on the condition variable, so a barrier whose participants
// arrive close together costs no OS wake-up.
type Barrier struct {
	n     int
	count atomic.Int64 // arrivals in the current phase
	phase atomic.Int64 // completed phases
	mu    sync.Mutex   // guards parking on cond
	cond  *sync.Cond
	// region keys this instance's wait spans in a trace,
	// "barrier<instance id>", built once so a traced Wait allocates
	// nothing.
	region string
}

// barrierSpins bounds how many times a waiter polls the phase before it
// parks: about 0.1 ms on a 2-vCPU Xeon, longer than the gap between two
// barriers of NPB CG's class S solve. A waiter yields the processor
// after every barrierBurst polls, so it never keeps the last
// participant from running.
const (
	barrierSpins = 1 << 14
	barrierBurst = 1 << 6
)

var barrierSeq int64

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n, region: "barrier" + trace.Itoa(atomic.AddInt64(&barrierSeq, 1))}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have called Wait. On traced
// runs each participant's wait is recorded as a span in the instance's
// region with the phase in its ArgPhase arg, and the arrival order
// standing in for a thread id (Wait has no tid parameter); the spread
// of one phase's spans is the barrier skew. Distinct Barrier instances
// get distinct regions so sequential barriers never merge in the
// summary.
func (b *Barrier) Wait() {
	traced := trace.Enabled()
	var t0 int64
	if traced {
		t0 = trace.Now()
	}
	// The phase is read before arriving: once the last participant
	// arrives it may advance at any moment.
	phase := b.phase.Load()
	arrival := b.count.Add(1) - 1
	if arrival == int64(b.n)-1 {
		// No participant can arrive for the next phase before the
		// phase advances, so resetting the count first is safe.
		b.count.Store(0)
		b.mu.Lock()
		b.phase.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
	} else {
		b.await(phase)
	}
	if traced {
		trace.Emit(trace.Event{
			TS:     t0,
			Dur:    trace.Now() - t0,
			Ph:     trace.PhaseSpan,
			TID:    int(arrival),
			Cat:    trace.CatOMP,
			Name:   trace.NameBarrierWait,
			Region: b.region,
			Args:   [3]trace.Arg{{Key: trace.ArgPhase, Val: phase}},
		})
	}
}

// await returns once the barrier has left phase: it polls the phase up
// to barrierSpins times, then parks until the last arrival broadcasts.
// The phase advances under mu, so a parked waiter cannot miss it.
func (b *Barrier) await(phase int64) {
	for i := 1; i <= barrierSpins; i++ {
		if b.phase.Load() != phase {
			return
		}
		if i%barrierBurst == 0 {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.phase.Load() == phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
