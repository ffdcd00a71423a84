package bench

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ookami/internal/testutil"
)

// work burns a deterministic amount of CPU so timed samples are stable.
func work(n int) func() {
	sink := 0.0
	return func() {
		for i := 0; i < n; i++ {
			sink += float64(i%7) * 1.0000001
		}
		if sink == -1 {
			panic("unreachable")
		}
	}
}

func TestRunAllHappyPath(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ws := []Workload{
		{Name: "t/a", Params: map[string]string{"n": "50000"},
			Setup: func() (func(), error) { return work(50000), nil }},
		{Name: "t/b", Setup: func() (func(), error) { return work(20000), nil }},
	}
	rep := RunAll(context.Background(), ws, Options{Repeats: 4, MaxCoV: 10})
	if rep.Schema != SchemaVersion {
		t.Errorf("schema = %d", rep.Schema)
	}
	if rep.Env.GoVersion == "" || rep.Env.NumCPU <= 0 {
		t.Errorf("env not captured: %+v", rep.Env)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.ErrKind != "" {
			t.Errorf("%s: unexpected error %s: %s", r.Name, r.ErrKind, r.Error)
		}
		if len(r.Samples) != 4 || r.Median <= 0 || r.Min > r.Max {
			t.Errorf("%s: bad stats %+v", r.Name, r)
		}
		if !(r.CILow <= r.Median && r.Median <= r.CIHigh) {
			t.Errorf("%s: median %v outside CI [%v, %v]", r.Name, r.Median, r.CILow, r.CIHigh)
		}
	}
	if rep.Result("t/a") == nil || rep.Result("t/missing") != nil {
		t.Error("Result lookup broken")
	}
}

func TestRunnerPanicIsolation(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ws := []Workload{
		{Name: "t/boom", Setup: func() (func(), error) {
			return func() { panic("kernel exploded") }, nil
		}},
		{Name: "t/ok", Setup: func() (func(), error) { return work(10000), nil }},
	}
	rep := RunAll(context.Background(), ws, Options{Repeats: 2, MaxCoV: 10})
	boom := rep.Result("t/boom")
	if boom == nil || boom.ErrKind != ErrPanic {
		t.Fatalf("panic result = %+v", boom)
	}
	if !strings.Contains(boom.Error, "kernel exploded") {
		t.Errorf("panic message lost: %q", boom.Error)
	}
	if !boom.Failed() {
		t.Error("panic result should be Failed")
	}
	// The run continues past the panicking workload.
	if ok := rep.Result("t/ok"); ok == nil || ok.ErrKind != "" {
		t.Errorf("workload after panic did not run cleanly: %+v", ok)
	}
}

func TestRunnerSetupError(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ws := []Workload{{Name: "t/nosetup", Setup: func() (func(), error) {
		return nil, errors.New("no input data")
	}}}
	rep := RunAll(context.Background(), ws, Options{Repeats: 2})
	r := rep.Result("t/nosetup")
	if r == nil || r.ErrKind != ErrSetup || !strings.Contains(r.Error, "no input data") {
		t.Fatalf("setup-error result = %+v", r)
	}
	if len(r.Samples) != 0 {
		t.Errorf("setup failure recorded samples: %+v", r.Samples)
	}
}

func TestRunnerTimeout(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ws := []Workload{{Name: "t/slow", Setup: func() (func(), error) {
		return func() { time.Sleep(30 * time.Millisecond) }, nil
	}}}
	rep := RunAll(context.Background(), ws, Options{
		Repeats: 50, Timeout: 40 * time.Millisecond, MaxCoV: 10,
	})
	r := rep.Result("t/slow")
	if r == nil || r.ErrKind != ErrTimeout {
		t.Fatalf("timeout result = %+v", r)
	}
	if !r.Failed() {
		t.Error("timeout result should be Failed")
	}
	// The abandoned goroutine re-checks the context between
	// iterations; CheckGoroutineLeak asserts it unwinds.
}

func TestRunnerCoVGate(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	// Alternating 1ms/12ms iterations: CoV far above any sane gate, on
	// every attempt — the interference check must retry and then flag.
	i := 0
	ws := []Workload{{Name: "t/noisy", Setup: func() (func(), error) {
		return func() {
			d := time.Millisecond
			if i%2 == 1 {
				d = 12 * time.Millisecond
			}
			i++
			time.Sleep(d)
		}, nil
	}}}
	rep := RunAll(context.Background(), ws, Options{
		Repeats: 4, MaxCoV: 0.05, Retries: 2, Backoff: time.Millisecond,
	})
	r := rep.Result("t/noisy")
	if r == nil || r.ErrKind != ErrNoisy {
		t.Fatalf("noisy result = %+v", r)
	}
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", r.Attempts)
	}
	if r.Failed() {
		t.Error("noisy is a soft failure; Failed() must be false")
	}
	// Statistics are still recorded, flagged as suspect.
	if len(r.Samples) != 4 || r.Median <= 0 || r.CoV <= 0.05 {
		t.Errorf("noisy result lost its samples: %+v", r)
	}
}

func TestRunnerCoVGatePassesQuietSamples(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	// Every iteration reads exactly 5ms on a fake clock, so the samples
	// are quiet however loaded the host is.
	clock := time.Unix(1700000000, 0)
	now = func() time.Time { return clock }
	defer func() { now = time.Now }()
	ws := []Workload{{Name: "t/quiet", Setup: func() (func(), error) {
		return func() { clock = clock.Add(5 * time.Millisecond) }, nil
	}}}
	rep := RunAll(context.Background(), ws, Options{Repeats: 3, MaxCoV: 0.5})
	r := rep.Result("t/quiet")
	if r == nil || r.ErrKind != "" || r.Attempts != 1 {
		t.Fatalf("quiet result = %+v", r)
	}
}

func TestRunAllHonorsParentCancel(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ws := []Workload{{Name: "t/never", Setup: func() (func(), error) {
		t.Error("Setup ran under a canceled context")
		return work(1), nil
	}}}
	rep := RunAll(ctx, ws, Options{})
	if len(rep.Results) != 0 {
		t.Errorf("canceled run produced results: %+v", rep.Results)
	}
}
