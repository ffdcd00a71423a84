package serve

import (
	"encoding/json"
	"sync"
	"testing"

	"ookami/internal/explain"
	"ookami/internal/testutil"
)

// A server prices each (toolchain, machine) pair once, on the pair's
// first cache miss, and every later miss on the pair reads that table.
// The tables belong to the server: a second server in the same process
// prices the pair again rather than finding it warm.
func TestPriceTablePerPairPerServer(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	bodies := []string{
		`{"kernel":"exp","toolchain":"Fujitsu"}`,
		`{"kernel":"gather","toolchain":"Fujitsu","threads":12}`,
		`{"kernel":"CG","toolchain":"Fujitsu","threads":48}`,
		`{"kernel":"simple","toolchain":"GNU"}`,
	}
	for run := 0; run < 2; run++ {
		s := newTestServer(t, Config{})
		for _, body := range bodies {
			if w := do(s, "POST", "/v1/predict", body, nil); w.Code != 200 {
				t.Fatalf("server %d: %s: status %d: %s", run, body, w.Code, w.Body)
			}
		}
		// Three Fujitsu/A64FX misses and one GNU/A64FX miss: two tables.
		if mm := s.prices.MemoMetrics(); mm.Misses != 2 || mm.Hits != 2 {
			t.Errorf("server %d: price tables %+v, want 2 builds and 2 reuses", run, mm)
		}
		if mm := s.CacheMetrics(); mm.Misses != len(bodies) || mm.Hits != 0 {
			t.Errorf("server %d: response cache %+v, want %d misses", run, mm, len(bodies))
		}
	}
}

// Concurrent first misses of one pair, each for a different key, share
// one table build, and every answer read from the shared table has the
// bytes of the direct library call.
func TestPriceTableConcurrentMisses(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	const callers = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := explain.Request{Kernel: explain.AllLoops[i%len(explain.AllLoops)].String(), Toolchain: "ARM", Threads: i + 1}
			if i%3 == 0 {
				req = explain.Request{Kernel: "UA", Toolchain: "ARM", Threads: i + 1}
			}
			body, _ := json.Marshal(req)
			<-start
			w := do(s, "POST", "/v1/predict", string(body), nil)
			p, err := explain.Predict(req)
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				return
			}
			want, _ := json.Marshal(p)
			if w.Code != 200 || w.Body.String() != string(want) {
				t.Errorf("%+v: status %d, served bytes differ from the library call\n got: %s\nwant: %s", req, w.Code, w.Body, want)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if mm := s.prices.MemoMetrics(); mm.Misses != 1 || mm.Hits != callers-1 {
		t.Errorf("price tables %+v, want 1 build shared by %d misses", mm, callers)
	}
}
