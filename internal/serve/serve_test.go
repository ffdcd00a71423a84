package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ookami/internal/explain"
	"ookami/internal/testutil"
)

// newTestServer builds an unthrottled server.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Rate == 0 {
		cfg.Rate = -1
	}
	return New(cfg)
}

// do runs one request through the handler and returns the recorder.
func do(s *Server, method, path, body string, header map[string]string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestAPITable(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantBody   string // substring the response body must contain
	}{
		{"predict loop", "POST", "/v1/predict",
			`{"kernel":"exp","toolchain":"Fujitsu"}`, 200, `"kind":"loop"`},
		{"predict app", "POST", "/v1/predict",
			`{"kernel":"CG","toolchain":"GNU","threads":48}`, 200, `"kind":"app"`},
		{"predict canonicalizes case", "POST", "/v1/predict",
			`{"kernel":"EXP","toolchain":"fujitsu"}`, 200, `"toolchain":"Fujitsu"`},
		{"unknown kernel", "POST", "/v1/predict",
			`{"kernel":"nope","toolchain":"GNU"}`, 404, `unknown kernel \"nope\"`},
		{"unknown toolchain", "POST", "/v1/predict",
			`{"kernel":"exp","toolchain":"nope"}`, 404, `unknown toolchain \"nope\"`},
		{"unknown machine", "POST", "/v1/predict",
			`{"kernel":"exp","toolchain":"GNU","machine":"nope"}`, 404, `unknown machine \"nope\"`},
		{"toolchain/machine mismatch", "POST", "/v1/predict",
			`{"kernel":"exp","toolchain":"Intel","machine":"Ookami"}`, 400, "does not target"},
		{"negative threads", "POST", "/v1/predict",
			`{"kernel":"exp","toolchain":"GNU","threads":-1}`, 400, "threads must be"},
		{"malformed json", "POST", "/v1/predict",
			`{"kernel":`, 400, "malformed request body"},
		{"unknown field", "POST", "/v1/predict",
			`{"kernel":"exp","toolchain":"GNU","cores":4}`, 400, "malformed request body"},
		{"wrong method on predict", "GET", "/v1/predict", "", 405, ""},
		{"unknown route", "GET", "/v1/nope", "", 404, ""},
		{"toolchains", "GET", "/v1/toolchains", "", 200, `"name":"Fujitsu"`},
		{"loops", "GET", "/v1/loops", "", 200, `"name":"short gather"`},
		{"machines", "GET", "/v1/machines", "", 200, `"ridgeFlopByte"`},
		{"roofline", "GET", "/v1/roofline", "", 200, `"winners"`},
		{"healthz", "GET", "/healthz", "", 200, `"status":"ok"`},
		{"metrics", "GET", "/metrics", "", 200, "ookami_serve_cache_hits"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(s, c.method, c.path, c.body, nil)
			if w.Code != c.wantStatus {
				t.Fatalf("%s %s: status %d, want %d: %s", c.method, c.path, w.Code, c.wantStatus, w.Body)
			}
			if c.wantBody != "" && !strings.Contains(w.Body.String(), c.wantBody) {
				t.Errorf("%s %s: body %q missing %q", c.method, c.path, w.Body, c.wantBody)
			}
		})
	}
}

// Every error body must be a JSON object with an "error" field — clients
// parse failures, they don't scrape prose.
func TestErrorBodiesAreJSON(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	for _, body := range []string{
		`{"kernel":"nope","toolchain":"GNU"}`,
		`{"kernel":"exp","toolchain":"nope"}`,
		`{"kernel":"exp","toolchain":"GNU","threads":-1}`,
		`bad`,
	} {
		w := do(s, "POST", "/v1/predict", body, nil)
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("request %q: error body %q is not {\"error\":...}", body, w.Body)
		}
	}
}

// The served prediction must be byte-identical to the direct library
// call — on the cold path and again on the cached path.
func TestPredictByteIdenticalToLibrary(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	reqs := []explain.Request{
		{Kernel: "exp", Toolchain: "Fujitsu", Threads: 48},
		{Kernel: "gather", Toolchain: "ARM", Elems: 1 << 16},
		{Kernel: "UA", Toolchain: "Fujitsu", Threads: 48},
		{Kernel: "simple", Toolchain: "Intel", Machine: "Skylake-6140", Threads: 36},
	}
	for _, req := range reqs {
		p, err := explain.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(p)
		body, _ := json.Marshal(req)
		for pass := 0; pass < 2; pass++ { // cold, then cached
			w := do(s, "POST", "/v1/predict", string(body), nil)
			if w.Code != 200 {
				t.Fatalf("%+v: status %d: %s", req, w.Code, w.Body)
			}
			if w.Body.String() != string(want) {
				t.Errorf("%+v pass %d: served bytes diverged from library call\n got: %s\nwant: %s",
					req, pass, w.Body, want)
			}
		}
	}
	if mm := s.CacheMetrics(); mm.Misses != len(reqs) || mm.Hits != len(reqs) {
		t.Errorf("cache metrics after cold+cached passes: %+v", mm)
	}
}

func TestPredictBodyTooLarge(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{MaxBodyBytes: 64})
	big := `{"kernel":"exp","toolchain":"GNU","machine":"` + strings.Repeat("x", 256) + `"}`
	w := do(s, "POST", "/v1/predict", big, nil)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413: %s", w.Code, w.Body)
	}
}

func TestRateLimitPerTenant(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	clock := time.Unix(1700000000, 0)
	s := New(Config{
		Rate: 1, Burst: 2,
		Now: func() time.Time { return clock },
	})
	tenantA := map[string]string{TenantHeader: "tenant-a"}
	tenantB := map[string]string{TenantHeader: "tenant-b"}

	for i := 0; i < 2; i++ {
		if w := do(s, "GET", "/v1/loops", "", tenantA); w.Code != 200 {
			t.Fatalf("tenant-a request %d: status %d", i, w.Code)
		}
	}
	w := do(s, "GET", "/v1/loops", "", tenantA)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("tenant-a over burst: status %d, want 429: %s", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(w.Body.String(), "rate limit exceeded") {
		t.Errorf("429 body: %s", w.Body)
	}

	// Tenancy is isolated: tenant-b's bucket is untouched.
	if w := do(s, "GET", "/v1/loops", "", tenantB); w.Code != 200 {
		t.Errorf("tenant-b blocked by tenant-a's bucket: status %d", w.Code)
	}
	// /healthz and /metrics are never throttled.
	if w := do(s, "GET", "/healthz", "", tenantA); w.Code != 200 {
		t.Errorf("healthz throttled: status %d", w.Code)
	}

	// One second later one token has accrued.
	clock = clock.Add(time.Second)
	if w := do(s, "GET", "/v1/loops", "", tenantA); w.Code != 200 {
		t.Errorf("after refill: status %d, want 200", w.Code)
	}
	if w := do(s, "GET", "/v1/loops", "", tenantA); w.Code != 429 {
		t.Errorf("bucket drained again: status %d, want 429", w.Code)
	}
}

// The tenant table is bounded: a key-rotation attack cannot grow it
// beyond MaxTenants.
func TestRateLimitTenantTableBounded(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	clock := time.Unix(1700000000, 0)
	s := New(Config{
		Rate: 1, Burst: 2, MaxTenants: 8,
		Now: func() time.Time { clock = clock.Add(time.Millisecond); return clock },
	})
	for i := 0; i < 100; i++ {
		hdr := map[string]string{TenantHeader: "tenant-" + string(rune('a'+i%26)) + string(rune('a'+i/26))}
		do(s, "GET", "/v1/loops", "", hdr)
	}
	if tenants, _ := s.limiter.stats(); tenants > 8 {
		t.Fatalf("tenant table grew to %d, max 8", tenants)
	}
}

func TestMetricsReportLatencyAndRoutes(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	do(s, "POST", "/v1/predict", `{"kernel":"exp","toolchain":"GNU"}`, nil)
	do(s, "POST", "/v1/predict", `{"kernel":"nope","toolchain":"GNU"}`, nil)
	do(s, "GET", "/v1/loops", "", nil)
	w := do(s, "GET", "/metrics", "", nil)
	body := w.Body.String()
	for _, want := range []string{
		`ookami_serve_requests_total{route="/v1/predict"} 2`,
		`ookami_serve_request_errors_total{route="/v1/predict"} 1`,
		`ookami_serve_latency_seconds{route="/v1/predict",q="0.5"}`,
		`ookami_serve_requests_total{route="/v1/loops"} 1`,
		"ookami_serve_cache_misses 1",
		"ookami_serve_inflight 1", // the /metrics request itself
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
