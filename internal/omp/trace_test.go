package omp

// Regression tests for the schedule/runner bug sweep, plus the traced-
// run observability the sweep leans on: the Dynamic cursor clamp, the
// worker-count clamp, and the exactly-once invariant across every
// schedule under hostile chunk sizes — several verified through the
// trace the runtime now emits.

import (
	"sync/atomic"
	"testing"

	"ookami/internal/testutil"
	"ookami/internal/trace"
)

// collectTrace runs fn under an enabled tracer and returns the snapshot.
func collectTrace(t *testing.T, fn func()) *trace.Trace {
	t.Helper()
	trace.Disable()
	trace.Enable()
	defer trace.Disable()
	fn()
	tr := trace.Stop()
	if tr == nil {
		t.Fatal("trace.Stop returned nil after Enable")
	}
	return tr
}

// TestDynamicCursorClampHugeChunk is the satellite-1 regression test:
// the pre-fix fetch-and-add cursor overflowed int64 when a huge chunk
// times a large team overshot hi, handing out blocks from bogus (even
// negative) offsets. With the CAS clamp a huge team over a tiny range
// with a pathological chunk still executes every index exactly once and
// never sees an out-of-range block.
func TestDynamicCursorClampHugeChunk(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const lo, hi = 0, 7
	team := NewTeam(64)
	var hits [hi]int32
	var badBlock atomic.Int32
	// chunk = 1<<60: a single grant covers the range; 64 eager workers
	// would previously push the cursor to ~64<<60, wrapping int64.
	team.ForRange(lo, hi, Dynamic, 1<<60, func(a, b int) {
		if a < lo || b > hi || a >= b {
			badBlock.Add(1)
			return
		}
		for i := a; i < b; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	if badBlock.Load() != 0 {
		t.Fatalf("%d out-of-range block(s) handed out", badBlock.Load())
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times, want exactly once", i, h)
		}
	}
}

// TestGrabChunkNeverOverflows drills the cursor directly: concurrent
// grabbers with an overflow-sized chunk must partition [0,hi) exactly,
// with the cursor parked at hi afterwards.
func TestGrabChunkNeverOverflows(t *testing.T) {
	var next int64 = 0
	const hi = 5
	covered := make([]bool, hi)
	for {
		a, b, ok := grabChunk(&next, hi, 1<<62)
		if !ok {
			break
		}
		if a < 0 || b > hi || a >= b {
			t.Fatalf("grabChunk handed out [%d,%d)", a, b)
		}
		for i := a; i < b; i++ {
			covered[i] = true
		}
	}
	if got := atomic.LoadInt64(&next); got != hi {
		t.Fatalf("cursor parked at %d, want %d", got, hi)
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("index %d never granted", i)
		}
	}
}

// TestWorkerClampSmallRange is the satellite-2 regression test: a team
// larger than the range must spawn at most one goroutine per iteration.
// The traced work spans make the actual worker count observable — the
// pre-clamp runtime woke all t.n goroutines to find nothing to do.
func TestWorkerClampSmallRange(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const n = 3
	team := NewTeam(8)
	for _, sched := range []Schedule{Static, StaticChunk, Dynamic, Guided} {
		tr := collectTrace(t, func() {
			var hits [n]int32
			team.For(0, n, sched, 1, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("%v: index %d hit %d times", sched, i, h)
				}
			}
		})
		workers := map[int]bool{}
		var regionWorkers int64
		for _, ev := range tr.Events {
			switch ev.Name {
			case trace.NameWork:
				workers[ev.TID] = true
			case trace.NameFor:
				regionWorkers = ev.Arg(trace.ArgWorkers)
			}
		}
		if len(workers) > n {
			t.Errorf("%v: %d work spans for a %d-iteration range (team %d): workers not clamped",
				sched, len(workers), n, team.Size())
		}
		if regionWorkers != n {
			t.Errorf("%v: region recorded workers=%d, want clamp to %d", sched, regionWorkers, n)
		}
	}
}

// TestScheduleInvariantMatrix is the satellite-5 sweep: every index in
// [lo, hi) is executed exactly once for every schedule, under
// pathological chunk sizes (negative, zero, larger than the range),
// degenerate ranges (hi<lo, hi==lo), and team sizes from 1 to far above
// the range. Run with -race this also shakes out grant races.
func TestScheduleInvariantMatrix(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ranges := []struct{ lo, hi int }{
		{0, 1}, {0, 17}, {5, 64}, {-8, 8}, // negative lo is legal
		{3, 3}, {10, 2}, // empty and inverted: must run nothing
	}
	for _, threads := range []int{1, 4, 32} {
		team := NewTeam(threads)
		for _, sched := range []Schedule{Static, StaticChunk, Dynamic, Guided} {
			for _, chunk := range []int{-3, 0, 1, 7, 1 << 30} {
				for _, r := range ranges {
					runScheduleInvariant(t, team, sched, chunk, r.lo, r.hi)
				}
			}
		}
	}
}

func runScheduleInvariant(t *testing.T, team *Team, sched Schedule, chunk, lo, hi int) {
	t.Helper()
	n := hi - lo
	if n <= 0 {
		ran := atomic.Int32{}
		team.For(lo, hi, sched, chunk, func(int) { ran.Add(1) })
		if ran.Load() != 0 {
			t.Fatalf("threads=%d %v chunk=%d [%d,%d): empty range executed %d iterations",
				team.Size(), sched, chunk, lo, hi, ran.Load())
		}
		return
	}
	hits := make([]int32, n)
	var outOfRange atomic.Int32
	team.For(lo, hi, sched, chunk, func(i int) {
		if i < lo || i >= hi {
			outOfRange.Add(1)
			return
		}
		atomic.AddInt32(&hits[i-lo], 1)
	})
	if outOfRange.Load() != 0 {
		t.Fatalf("threads=%d %v chunk=%d [%d,%d): %d out-of-range index(es)",
			team.Size(), sched, chunk, lo, hi, outOfRange.Load())
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("threads=%d %v chunk=%d [%d,%d): index %d executed %d times",
				team.Size(), sched, chunk, lo, hi, lo+i, h)
		}
	}
}

// TestTracedForEmitsBalancedSummary checks the tentpole end to end at
// the runtime level: a traced parallel-for yields a region whose
// per-thread iteration counts sum to the range and whose chunk
// histogram matches the schedule.
func TestTracedForEmitsBalancedSummary(t *testing.T) {
	const n, chunkSize = 256, 16
	team := NewTeam(4)
	tr := collectTrace(t, func() {
		team.For(0, n, StaticChunk, chunkSize, func(i int) {})
	})
	s := tr.Summarize()
	if len(s.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(s.Regions))
	}
	r := s.Regions[0]
	var iters int64
	for _, th := range r.Threads {
		iters += th.Iters
	}
	if iters != n {
		t.Fatalf("per-thread iterations sum to %d, want %d", iters, n)
	}
	if r.ChunkHist[chunkSize] != n/chunkSize {
		t.Fatalf("chunk hist = %v, want %d grants of %d", r.ChunkHist, n/chunkSize, chunkSize)
	}
}

// TestBarrierWaitTraced checks each participant of a barrier phase
// produces one wait span, and that distinct barrier instances key
// distinct regions (sequential barriers must not merge in summaries).
func TestBarrierWaitTraced(t *testing.T) {
	const parts = 4
	b1 := NewBarrier(parts)
	b2 := NewBarrier(parts)
	team := NewTeam(parts)
	tr := collectTrace(t, func() {
		team.Parallel(func(tid int) {
			b1.Wait()
			b2.Wait()
		})
	})
	byRegion := map[string]int{}
	for _, ev := range tr.Events {
		if ev.Name == trace.NameBarrierWait {
			byRegion[ev.Region]++
		}
	}
	if len(byRegion) != 2 {
		t.Fatalf("got regions %v, want 2 distinct barrier regions", byRegion)
	}
	for region, waits := range byRegion {
		if waits != parts {
			t.Fatalf("region %s has %d wait spans, want %d", region, waits, parts)
		}
	}
}

// TestTracedBarrierWaitAllocatesNothing pins that a traced Wait emits
// its span from the region string NewBarrier built, with the phase in an
// arg, rather than building a string per wait.
func TestTracedBarrierWaitAllocatesNothing(t *testing.T) {
	b := NewBarrier(1)
	trace.Disable()
	trace.Enable()
	defer trace.Disable()
	if n := testing.AllocsPerRun(100, b.Wait); n != 0 {
		t.Fatalf("a traced Wait makes %v allocations, want 0", n)
	}
}

// TestUntracedRunEmitsNothing pins the zero-cost-off contract at the
// API level: with tracing disabled, a run leaves no trace state behind.
func TestUntracedRunEmitsNothing(t *testing.T) {
	trace.Disable()
	team := NewTeam(4)
	team.For(0, 100, Dynamic, 0, func(i int) {})
	if trace.Snapshot() != nil {
		t.Fatal("untraced run left an active tracer")
	}
}
