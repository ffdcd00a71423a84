package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ookami/internal/explain"
	"ookami/internal/parexec"
	"ookami/internal/serve"
	"ookami/internal/stats"
)

const (
	// clients is the number of closed-loop clients, one keep-alive
	// connection each. On a 2-vCPU host one client and the server share
	// the two cores without competing for them; with two clients,
	// throughput followed how much CPU the host left the run.
	clients = 1
	// serveRate is far above what a closed-loop client on two cores
	// reaches: the per-tenant limiter runs on every request but never
	// throttles, so a 429 is a failure.
	serveRate = 1e9
	probeN    = 64 // requests each explain and handler probe times
	// recCap bounds each client's latency record. A full record keeps
	// every other sample and halves its sampling rate from then on, so
	// the benchmark's own memory stays fixed (192 KiB per client) however
	// fast the server gets, and mem_peak_mb stays the server's.
	recCap = 1 << 15
	// Headers carrying a traced request's operation region and trace
	// thread id to the server-side span.
	opHeader  = "X-Perfbench-Op"
	tidHeader = "X-Perfbench-Tid"
)

// hotInputs is the serve-hot request mix with its expected answers.
type hotInputs struct {
	points []explain.Request
	bodies [][]byte // request bodies
	want   [][]byte // json.Marshal(explain.Predict(point))
	part   []int    // part index of each point
	seq    []uint16 // point index of each request
}

func setupServeHot(seed int64) (func() (runner, error), error) {
	in := &hotInputs{}
	in.points = hotSpace()
	for _, req := range in.points {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		want, err := predictBytes(req)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.want = append(in.want, want)
		in.part = append(in.part, partOf(req))
	}
	in.seq = hotSequence(seed, len(in.points), hotSeqLen)
	return func() (runner, error) { return startServe(in) }, nil
}

// predictBytes is the direct library answer a served body must equal.
func predictBytes(req explain.Request) ([]byte, error) {
	p, err := explain.Predict(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(p)
}

// serveRun is an in-process ookami-serve on loopback with its clients,
// replaying the Zipf mix over warmed keys.
type serveRun struct {
	in     *hotInputs
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	tr     *http.Transport
	client *http.Client
	next   atomic.Int64 // index of the next request
	recs   [clients]*clientRec

	memo    parexec.MemoMetrics // cache counter deltas over timed phases
	memoOps int
}

// clientRec is what one client records while timing.
type clientRec struct {
	lat    []float32 // ms of every stride-th request
	point  []uint16  // point index of the same requests
	stride int
	seen   int // requests recorded or skipped
	ok     int
	failed int
	bytes  int64
	buf    bytes.Buffer
}

func newClientRec() *clientRec {
	return &clientRec{lat: make([]float32, 0, recCap), point: make([]uint16, 0, recCap), stride: 1}
}

func (c *clientRec) reset() {
	c.lat, c.point = c.lat[:0], c.point[:0]
	c.stride, c.seen = 1, 0
	c.ok, c.failed, c.bytes = 0, 0, 0
}

// record keeps the latency of request number seen when seen is a
// multiple of the stride: a uniform sample of the phase.
func (c *clientRec) record(latMS float64, point uint16) {
	j := c.seen
	c.seen++
	if j%c.stride != 0 {
		return
	}
	if len(c.lat) == cap(c.lat) {
		k := 0
		for i := 0; i < len(c.lat); i += 2 {
			c.lat[k], c.point[k] = c.lat[i], c.point[i]
			k++
		}
		c.lat, c.point = c.lat[:k], c.point[:k]
		c.stride *= 2
		if j%c.stride != 0 {
			return
		}
	}
	c.lat = append(c.lat, float32(latMS))
	c.point = append(c.point, point)
}

// startServe builds the server with the product defaults (Rate aside),
// starts it on a loopback listener and warms it up by requesting every
// point of the space once.
func startServe(in *hotInputs) (runner, error) {
	s := &serveRun{in: in, served: make(chan error, 1)}
	s.srv = serve.New(serve.Config{Rate: serveRate})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: listen: %w", err)
	}
	s.hs = &http.Server{Handler: spanHandler{s.srv.Handler()}, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.served <- s.hs.Serve(l) }()
	s.url = "http://" + l.Addr().String() + "/v1/predict"
	s.tr = &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	for c := range s.recs {
		s.recs[c] = newClientRec()
	}
	if err := s.warm(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// warm requests every point once, split over the clients.
func (s *serveRun) warm() error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c, rec := range s.recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(s.in.points) && errs[c] == nil; i += clients {
				status, err := s.post(c, s.in.bodies[i], "", rec)
				if err == nil && (status != http.StatusOK || !bytes.Equal(rec.buf.Bytes(), s.in.want[i])) {
					err = fmt.Errorf("serve: warm-up answer %d differs from the library (status %d)", i, status)
				}
				errs[c] = err
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// spanHandler wraps the server's handler in a "serve" span when tracing
// is on; the client names the operation in headers.
type spanHandler struct{ next http.Handler }

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := begin()
	h.next.ServeHTTP(w, r)
	if sp.on {
		tid, _ := strconv.Atoi(r.Header.Get(tidHeader))
		sp.end("serve", "ServeHTTP", r.Header.Get(opHeader), tid)
	}
}

// post sends one predict request from client c and reads the body into
// rec.buf.
func (s *serveRun) post(c int, body []byte, region string, rec *clientRec) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	s.headers(req.Header, c, region)
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rec.buf.Reset()
	_, err = rec.buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func (s *serveRun) headers(h http.Header, c int, region string) {
	h.Set("Content-Type", "application/json")
	h.Set(serve.TenantHeader, "perfbench-"+strconv.Itoa(c))
	if region != "" {
		h.Set(opHeader, region)
		h.Set(tidHeader, strconv.Itoa(tidClient+c))
	}
}

func (s *serveRun) measure(ph *phase, deadline time.Time, maxOps int) {
	m0 := s.srv.CacheMetrics()
	var count atomic.Int64
	var wg sync.WaitGroup
	for c, rec := range s.recs {
		rec.reset()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.clientLoop(c, rec, deadline, int64(maxOps), &count)
		}()
	}
	wg.Wait()
	m1 := s.srv.CacheMetrics()
	s.memo.Hits += m1.Hits - m0.Hits
	s.memo.Misses += m1.Misses - m0.Misses
	s.memo.Evictions += m1.Evictions - m0.Evictions
}

// clientLoop is one closed-loop client: it sends its next request only
// after the previous answer arrived, and checks every body.
func (s *serveRun) clientLoop(c int, rec *clientRec, deadline time.Time, maxOps int64, count *atomic.Int64) {
	for time.Now().Before(deadline) {
		if maxOps > 0 && count.Add(1) > maxOps {
			return
		}
		i := int(s.next.Add(1) - 1)
		p := s.in.seq[i%len(s.in.seq)]
		region := ""
		sp := begin()
		if sp.on {
			region = opRegion(i)
		}
		t0 := time.Now()
		status, err := s.post(c, s.in.bodies[p], region, rec)
		d := time.Since(t0)
		sp.end("client", "predict", region, tidClient+c)
		rec.record(ms(d), p)
		if err != nil || status != http.StatusOK || !bytes.Equal(rec.buf.Bytes(), s.in.want[p]) {
			rec.failed++
			continue
		}
		rec.ok++
		rec.bytes += int64(rec.buf.Len())
	}
}

// finish moves the client records into ph.
func (s *serveRun) finish(ph *phase) {
	names := partNames()
	for _, rec := range s.recs {
		for j, p := range rec.point {
			lat := float64(rec.lat[j])
			ph.lat = append(ph.lat, lat)
			name := names[s.in.part[p]]
			ph.parts[name] = append(ph.parts[name], lat)
		}
		ph.ok += rec.ok
		ph.failed += rec.failed
	}
	s.memoOps += ph.attempted()
}

func (s *serveRun) layers(ph *phase, out map[string]float64) {
	var n, b int64
	for _, rec := range s.recs {
		n += int64(rec.ok)
		b += rec.bytes
	}
	if n > 0 {
		out["serve.resp_bytes"] = float64(b) / float64(n)
	}
	memoPerOp(s.memo, s.memoOps, out)
}

// probe times the explain calls behind a request, and the handler
// without TCP, on the first probeN requests of the mix.
func (s *serveRun) probe(out map[string]float64) probeResult {
	var res probeResult
	var key, pred, enc, handler []float64
	for k := 0; k < probeN; k++ {
		req := s.in.points[s.in.seq[k]]
		region := probeRegion(k)
		res.attempted++
		sp := begin()
		t := time.Now()
		_, kerr := req.Key()
		key = append(key, ms(time.Since(t))*1e3)
		sp.end("explain", "Key", region, tidProbe)
		sp = begin()
		t = time.Now()
		p, perr := explain.Predict(req)
		pred = append(pred, ms(time.Since(t))*1e3)
		sp.end("explain", "Predict", region, tidProbe)
		sp = begin()
		t = time.Now()
		want, eerr := json.Marshal(p)
		enc = append(enc, ms(time.Since(t))*1e3)
		sp.end("explain", "Marshal", region, tidProbe)

		hr := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(s.in.bodies[s.in.seq[k]]))
		s.headers(hr.Header, 0, region)
		hr.Header.Set(tidHeader, strconv.Itoa(tidProbe))
		w := httptest.NewRecorder()
		t = time.Now()
		s.hs.Handler.ServeHTTP(w, hr)
		handler = append(handler, ms(time.Since(t))*1e3)
		if kerr != nil || perr != nil || eerr != nil ||
			w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) {
			res.failed++
		}
	}
	out["explain.key_us"] = stats.Median(key)
	out["explain.predict_us"] = stats.Median(pred)
	out["explain.encode_us"] = stats.Median(enc)
	out["serve.handler_us"] = stats.Median(handler)
	return res
}

func (s *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.tr.CloseIdleConnections()
	_ = s.hs.Shutdown(ctx) // the deadline only bounds a stuck drain
	<-s.served
	_ = s.srv.Shutdown(ctx)
}
