// Package serve implements the ookami-serve HTTP API: a multi-tenant
// prediction service over the performance model. Queries (kernel ×
// toolchain × machine × thread count) are answered by internal/explain,
// routed through the certified parexec engine so identical in-flight
// queries coalesce onto one evaluation and completed answers live in a
// capacity-bounded LRU cache. The cache stores the marshaled response
// bytes, which with explain.Predict's certified purity gives the API its
// core contract: a served answer is byte-identical to a direct library
// call with the same request tuple.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ookami/internal/parexec"
)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for an interactive deployment.
type Config struct {
	// Rate is the per-tenant steady request rate (requests/second) on
	// the /v1/ endpoints; Burst is the token-bucket depth. Rate 0
	// selects the default, negative disables rate limiting.
	Rate  float64
	Burst int

	// MaxTenants bounds the rate limiter's tenant table; the least
	// recently seen tenant is dropped when a new one would exceed it.
	MaxTenants int

	// MaxBodyBytes bounds request bodies (http.MaxBytesReader).
	MaxBodyBytes int64

	// ReadTimeout bounds reading one whole request, headers and body,
	// on a served connection (http.Server.ReadTimeout): a client that
	// trickles a predict body cannot pin a handler goroutine past it.
	// With no IdleTimeout set, net/http also uses it as the keep-alive
	// idle timeout.
	ReadTimeout time.Duration

	// Now is the clock, injectable for rate-limiter and metrics tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Rate == 0 {
		c.Rate = 50
	}
	if c.Burst <= 0 {
		c.Burst = 100
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the ookami-serve service: handlers, cache, rate limiter and
// metrics behind one http.Handler.
type Server struct {
	cfg     Config
	engine  *parexec.Engine
	limiter *limiter
	metrics *metrics
	mux     *http.ServeMux

	httpSrv  *http.Server
	inflight atomic.Int64
	draining atomic.Bool
}

// New builds a server. Model queries go through the certified memo
// engine: concurrent identical queries coalesce, and completed answers
// are served from its bounded LRU.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		engine:  parexec.NewSerial(),
		metrics: newMetrics(),
	}
	if cfg.Rate > 0 {
		s.limiter = newLimiter(cfg.Rate, cfg.Burst, cfg.MaxTenants, cfg.Now)
	}
	s.mux = http.NewServeMux()
	s.routes()
	// Built here, not in Serve: Shutdown may race a concurrent Serve
	// call otherwise, and both must see the same http.Server.
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       cfg.ReadTimeout,
	}
	return s
}

// routes wires every endpoint through the middleware chain.
func (s *Server) routes() {
	api := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.wrap(route, true, h))
	}
	bare := func(pattern, route string, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.wrap(route, false, h))
	}
	api("POST /v1/predict", "/v1/predict", s.handlePredict)
	api("GET /v1/roofline", "/v1/roofline", s.handleRoofline)
	api("GET /v1/toolchains", "/v1/toolchains", s.handleToolchains)
	api("GET /v1/loops", "/v1/loops", s.handleLoops)
	api("GET /v1/machines", "/v1/machines", s.handleMachines)
	bare("GET /healthz", "/healthz", s.handleHealthz)
	bare("GET /metrics", "/metrics", s.handleMetrics)
}

// Handler returns the server's root handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns the error
// http.Server.Serve returns (http.ErrServerClosed after a clean drain).
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains: new connections are refused, in-flight requests run
// to completion (or until ctx expires), then the listener closes and the
// engine joins. /healthz reports draining while this runs.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	s.engine.Close()
	return err
}

// Inflight reports the number of requests currently being handled.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// CacheMetrics snapshots the prediction cache counters.
func (s *Server) CacheMetrics() parexec.MemoMetrics { return s.engine.MemoMetrics() }

// Addr formats the bound address of a served listener (for logs).
func Addr(l net.Listener) string { return fmt.Sprintf("http://%s", l.Addr()) }
