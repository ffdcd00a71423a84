package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"ookami/internal/explain"
)

// Smoke is the end-to-end self-test behind `ookami-serve smoke` (run by
// `make smoke`): a real server on an ephemeral port, every endpoint
// exercised over real HTTP, a rate-limit probe, a cached-path load burst
// held to floor req/s with every response checked byte-identical to the
// direct library call, and a clean drain.
func Smoke(out io.Writer, workers, perWorker int, floor float64) error {
	s := New(Config{Rate: -1}) // the load burst must not be throttled
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	base := Addr(l)
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		<-errc
	}()
	fmt.Fprintf(out, "serving on %s\n", base)

	get := func(path string, wantStatus int) ([]byte, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			return nil, fmt.Errorf("GET %s: status %d, want %d: %s", path, resp.StatusCode, wantStatus, body)
		}
		return body, nil
	}

	for _, path := range []string{"/healthz", "/v1/toolchains", "/v1/loops", "/v1/machines", "/v1/roofline"} {
		body, err := get(path, http.StatusOK)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "GET %-15s ok (%d bytes)\n", path, len(body))
	}

	// One uncached predict, checked against the direct library call.
	req := explain.Request{Kernel: "exp", Toolchain: "Fujitsu", Threads: 48}
	p, err := explain.Predict(req)
	if err != nil {
		return err
	}
	want, _ := json.Marshal(p)
	reqBody, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return err
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		return fmt.Errorf("POST /v1/predict: status %d, byte-identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	fmt.Fprintf(out, "POST /v1/predict ok, byte-identical to library call\n")

	// Rate limiting on a separate throttled server: the third request
	// within one burst window must get 429 + Retry-After.
	if err := smokeRateLimit(out); err != nil {
		return err
	}

	// The cached-path load burst.
	res, err := LoadTest(base, "smoke", req, workers, perWorker)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "load: %d requests in %.2fs = %.0f req/s (errors %d, mismatched %d)\n",
		res.Requests, res.Elapsed.Seconds(), res.RPS, res.Errors, res.Mismatched)
	if res.Errors > 0 || res.Mismatched > 0 {
		return fmt.Errorf("load burst: %d errors, %d mismatched responses", res.Errors, res.Mismatched)
	}
	if res.RPS < floor {
		return fmt.Errorf("load burst: %.0f req/s below the %.0f floor", res.RPS, floor)
	}
	cm := s.CacheMetrics()
	fmt.Fprintf(out, "cache: %d hits / %d misses / %d evictions (size %d, cap %d)\n",
		cm.Hits, cm.Misses, cm.Evictions, cm.Size, cm.Cap)

	body, err := get("/metrics", http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Contains(body, []byte("ookami_serve_cache_hits")) {
		return fmt.Errorf("/metrics missing cache counters:\n%s", body)
	}
	fmt.Fprintf(out, "GET /metrics ok\nsmoke passed\n")
	return nil
}

// smokeRateLimit verifies the 429 path on a tightly throttled server.
func smokeRateLimit(out io.Writer) error {
	s := New(Config{Rate: 1, Burst: 2})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		<-errc
	}()
	var last *http.Response
	for i := 0; i < 3; i++ {
		resp, err := http.Get(Addr(l) + "/v1/loops")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		last = resp
	}
	if last.StatusCode != http.StatusTooManyRequests {
		return fmt.Errorf("rate limit: third request got %d, want 429", last.StatusCode)
	}
	if last.Header.Get("Retry-After") == "" {
		return fmt.Errorf("429 response missing Retry-After")
	}
	fmt.Fprintf(out, "rate limit: burst exhausted -> 429 with Retry-After %ss\n", last.Header.Get("Retry-After"))
	return nil
}
