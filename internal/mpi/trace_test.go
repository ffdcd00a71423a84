package mpi

// Satellite-3 regression tests (OOKAMI_MPI_TIMEOUT must fail loudly,
// once, and fall back to the default) and the MPI side of the tentpole
// (barrier wait spans per rank, send counters).

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ookami/internal/trace"
)

func TestTimeoutFromEnvTypedErrors(t *testing.T) {
	cases := []struct {
		val     string
		wantErr bool
	}{
		{"", false},
		{"0", false},
		{"0s", false},
		{"250ms", false},
		{"2s", false},
		{"not-a-duration", true},
		{"5", true},   // bare number: time.ParseDuration rejects it
		{"-3s", true}, // negative: watchdog cannot wait a negative time
	}
	for _, c := range cases {
		t.Setenv("OOKAMI_MPI_TIMEOUT", c.val)
		d, err := TimeoutFromEnv()
		if c.wantErr {
			if err == nil {
				t.Errorf("OOKAMI_MPI_TIMEOUT=%q: want error, got nil", c.val)
				continue
			}
			var te *TimeoutEnvError
			if !errors.As(err, &te) {
				t.Errorf("OOKAMI_MPI_TIMEOUT=%q: error %T is not *TimeoutEnvError", c.val, err)
				continue
			}
			if te.Raw != c.val {
				t.Errorf("OOKAMI_MPI_TIMEOUT=%q: error carries Raw=%q", c.val, te.Raw)
			}
			if d != 0 {
				t.Errorf("OOKAMI_MPI_TIMEOUT=%q: rejected value yielded timeout %v, want disabled", c.val, d)
			}
			if !strings.Contains(te.Error(), "OOKAMI_MPI_TIMEOUT") {
				t.Errorf("error text does not name the variable: %q", te.Error())
			}
		} else if err != nil {
			t.Errorf("OOKAMI_MPI_TIMEOUT=%q: unexpected error %v", c.val, err)
		}
	}
}

func TestTimeoutEnvWarnsExactlyOnce(t *testing.T) {
	t.Setenv("OOKAMI_MPI_TIMEOUT", "garbage")
	var sb strings.Builder
	oldOut := warnOut
	warnOut = &sb
	timeoutWarned.Store(false)
	defer func() {
		warnOut = oldOut
		timeoutWarned.Store(true) // leave silenced for any later Run in the suite
	}()

	// Two runs with a bad value: the rejection must surface once and
	// the ranks must still run with the watchdog disabled.
	for i := 0; i < 2; i++ {
		var ran sync.WaitGroup
		ran.Add(2)
		Run(2, func(c *Comm) {
			defer ran.Done()
			c.Barrier()
		})
		ran.Wait()
	}
	out := sb.String()
	if n := strings.Count(out, "OOKAMI_MPI_TIMEOUT"); n != 1 {
		t.Fatalf("warning printed %d times, want exactly once:\n%s", n, out)
	}
	if !strings.Contains(out, "garbage") || !strings.Contains(out, "watchdog disabled") {
		t.Fatalf("warning does not explain itself: %q", out)
	}
}

func TestBarrierWaitSpansPerRank(t *testing.T) {
	trace.Disable()
	trace.Enable()
	defer trace.Disable()
	const ranks = 4
	Run(ranks, func(c *Comm) {
		c.Barrier()
		c.Barrier()
	})
	tr := trace.Stop()
	if tr == nil {
		t.Fatal("no trace collected")
	}
	// One barrier phase is a (region, phase) pair, as the trace summary
	// keys it: the region names the instance, ArgPhase the phase.
	type phaseKey struct {
		region string
		phase  int64
	}
	perPhase := map[phaseKey]map[int]int{}
	for _, ev := range tr.Events {
		if ev.Cat == trace.CatMPI && ev.Name == trace.NameBarrierWait {
			k := phaseKey{ev.Region, ev.Arg(trace.ArgPhase)}
			m := perPhase[k]
			if m == nil {
				m = map[int]int{}
				perPhase[k] = m
			}
			m[ev.TID]++
		}
	}
	if len(perPhase) != 2 {
		t.Fatalf("got %d barrier phases %v, want 2", len(perPhase), perPhase)
	}
	for phase, m := range perPhase {
		if len(m) != ranks {
			t.Fatalf("phase %v: %d distinct ranks waited, want %d", phase, len(m), ranks)
		}
		for rank, n := range m {
			if n != 1 {
				t.Fatalf("phase %v rank %d emitted %d wait spans, want 1", phase, rank, n)
			}
		}
	}
}

// TestTracingBarrierWaitAllocatesNothing pins that tracing an MPI
// barrier wait adds no allocation: the span carries the region string
// newBarrier built and the phase in an arg. The wait itself makes one
// allocation per phase, traced or not: the next phase's release
// channel.
func TestTracingBarrierWaitAllocatesNothing(t *testing.T) {
	b := newBarrier(1, 0)
	wait := func() { b.wait(0) }
	trace.Disable()
	untraced := testing.AllocsPerRun(100, wait)
	trace.Enable()
	defer trace.Disable()
	if traced := testing.AllocsPerRun(100, wait); traced != untraced {
		t.Fatalf("a traced barrier wait makes %v allocations, an untraced one %v", traced, untraced)
	}
}

func TestSendCounters(t *testing.T) {
	trace.Disable()
	trace.Enable()
	defer trace.Disable()
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, []float64{1, 2, 3}) // 24 bytes
			c.Send(1, 7)                  // 8 bytes
		} else {
			c.RecvF64(0)
			c.Recv(0)
		}
	})
	tr := trace.Stop()
	if tr == nil {
		t.Fatal("no trace collected")
	}
	var msgs, bytes int64
	for _, c := range tr.Counters {
		if c.Cat != trace.CatMPI || c.TID != 0 {
			continue
		}
		switch c.Name {
		case trace.CounterSendMsgs:
			msgs = c.Val
		case trace.CounterSendBytes:
			bytes = c.Val
		}
	}
	if msgs != 2 || bytes != 32 {
		t.Fatalf("rank 0 counters: msgs=%d bytes=%d, want 2 and 32", msgs, bytes)
	}
}
