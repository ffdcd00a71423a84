package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ookami/internal/testutil"
)

// N concurrent identical cold queries must coalesce onto one model
// evaluation: the singleflight memo admits exactly one compute, everyone
// else waits for its bytes.
func TestPredictCoalescesConcurrentIdenticalQueries(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	const callers = 32
	body := `{"kernel":"UA","toolchain":"Fujitsu","threads":48}`
	var wg sync.WaitGroup
	start := make(chan struct{})
	bodies := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			w := do(s, "POST", "/v1/predict", body, nil)
			if w.Code != 200 {
				t.Errorf("caller %d: status %d", i, w.Code)
			}
			bodies[i] = w.Body.String()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d got different bytes than caller 0", i)
		}
	}
	mm := s.CacheMetrics()
	if mm.Misses != 1 {
		t.Errorf("%d concurrent identical queries computed %d times, want 1 (metrics %+v)",
			callers, mm.Misses, mm)
	}
	if mm.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", mm.Hits, callers-1)
	}
}

// Shutdown must drain: a request whose body is still arriving when
// Shutdown is called completes successfully before Serve returns.
func TestShutdownDrainsInflightRequest(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	// A predict request over a raw connection, headers sent, body held
	// back: in-flight from the server's point of view.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"kernel":"exp","toolchain":"GNU"}`
	_, err = fmt.Fprintf(conn, "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		len(body), body[:10])
	if err != nil {
		t.Fatal(err)
	}

	// Drain only once the server has read the headers and entered the
	// handler: before that the connection is idle, and Shutdown closes
	// idle connections instead of waiting for them.
	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("request never became in flight (inflight %d)", s.Inflight())
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Let the drain begin, then deliver the rest of the body.
	time.Sleep(50 * time.Millisecond)
	if _, err := io.WriteString(conn, body[10:]); err != nil {
		t.Fatalf("finishing in-flight body: %v", err)
	}
	resp, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading drained response: %v", err)
	}
	if !strings.Contains(string(resp), "200 OK") || !strings.Contains(string(resp), `"kind":"loop"`) {
		t.Errorf("in-flight request not served to completion during drain:\n%s", resp)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// New connections are refused after the drain.
	if _, err := net.DialTimeout("tcp", l.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// A client that sends the predict headers and then stalls mid-body must
// not hold the handler past Config.ReadTimeout: the server answers with
// an error or closes the connection shortly after the deadline.
func TestPredictSlowBodyHitsReadTimeout(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	const timeout = 200 * time.Millisecond
	s := newTestServer(t, Config{ReadTimeout: timeout})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-served
	}()

	// The clock starts before the dial: net/http arms ReadTimeout once
	// it accepts the connection, which may precede Dial's return.
	start := time.Now()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"kernel":"exp","toolchain":"GNU"}`
	if _, err := fmt.Fprintf(conn, "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:10]); err != nil {
		t.Fatal(err)
	}
	// The client stalls here for good. Its own read deadline is the
	// failure mode: a server without a body deadline waits until then.
	if err := conn.SetReadDeadline(start.Add(10 * timeout)); err != nil {
		t.Fatal(err)
	}
	resp, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still waiting for the body after %v (ReadTimeout %v)", elapsed, timeout)
	}
	if strings.Contains(string(resp), "200 OK") {
		t.Fatalf("stalled body answered 200:\n%s", resp)
	}
	if elapsed < timeout {
		t.Errorf("connection ended after %v, before the %v deadline: %v\n%s", elapsed, timeout, err, resp)
	}
}

// Draining servers advertise it on /healthz (load balancers watch this).
func TestHealthzReportsDraining(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w := do(s, "GET", "/healthz", "", nil)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("healthz during drain: status %d body %s", w.Code, w.Body)
	}
}

// Error paths must not leak goroutines: hammer every failure mode, then
// the leak check (registered first) verifies the count settles.
func TestErrorPathsLeakNoGoroutines(t *testing.T) {
	testutil.CheckGoroutineLeak(t)
	clock := time.Unix(1700000000, 0)
	s := New(Config{Rate: 1, Burst: 1, MaxBodyBytes: 128,
		Now: func() time.Time { return clock }})
	for i := 0; i < 50; i++ {
		do(s, "POST", "/v1/predict", `{"kernel":"nope","toolchain":"GNU"}`, nil)
		do(s, "POST", "/v1/predict", `{bad`, nil)
		do(s, "POST", "/v1/predict", strings.Repeat("x", 256), nil)
		for _, path := range []string{"/v1/roofline", "/v1/toolchains", "/v1/loops", "/v1/machines"} {
			do(s, "GET", path, "", map[string]string{TenantHeader: "t"}) // mostly 429s
		}
		do(s, "GET", "/healthz", "", nil)
		do(s, "GET", "/metrics", "", nil)
	}
}
