package serve

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"ookami/internal/explain"
	"ookami/internal/testutil"
)

// The committed load test: sustained request rate on the cached predict
// path over real HTTP, with every response verified byte-identical to
// the direct library call. The 10k req/s floor is asserted without the
// race detector (the instrumented build is ~10x slower and proves
// race-freedom instead); `ookami-serve smoke`, run by `make smoke`, holds
// the same floor on a plain build.
func TestLoadCachedPredictPath(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	perWorker := 2500
	if raceEnabled || testing.Short() {
		perWorker = 100
	}
	req := explain.Request{Kernel: "exp", Toolchain: "Fujitsu", Threads: 48}
	res, err := LoadTest(ts.URL, "loadtest", req, workers, perWorker)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d requests in %.3fs = %.0f req/s (workers %d)", res.Requests, res.Elapsed.Seconds(), res.RPS, workers)
	if res.Errors > 0 || res.Mismatched > 0 {
		t.Fatalf("load run: %d errors, %d responses diverged from the library call", res.Errors, res.Mismatched)
	}
	if !raceEnabled && !testing.Short() && res.RPS < 10000 {
		t.Errorf("cached path sustained %.0f req/s, want >= 10000", res.RPS)
	}
	mm := s.CacheMetrics()
	if mm.Misses != 1 {
		t.Errorf("cached-path load computed the model %d times, want 1", mm.Misses)
	}
}
