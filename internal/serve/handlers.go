package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"

	"ookami/internal/explain"
)

// predictEntry is the certified dispatch entry the server evaluates
// model queries through: Engine.Run panics unless explain.Predict is
// certified pure in the parsafe baseline, so an uncertified model cannot
// silently serve cached traffic.
const predictEntry = "explain.Predict"

// pricesEntry is the certified dispatch entry the server builds a
// pair's price table through.
const pricesEntry = "explain.PricePair"

// handlePredict answers POST /v1/predict. The request is resolved and
// canonicalized first — invalid queries never touch the cache — then the
// canonical key routes through the engine's singleflight memo: identical
// concurrent queries coalesce onto one evaluation, completed answers are
// served from the bounded LRU as the exact marshaled bytes. A miss is
// answered from its pair's price table.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req explain.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeDecodeError(w, err)
		return
	}
	key, err := req.Key()
	if err != nil {
		writeExplainError(w, err)
		return
	}
	v := s.engine.Run(predictEntry, key, func() any {
		p, err := s.predict(req)
		if err != nil {
			// Unreachable after Key() succeeded, but a deterministic
			// error is still a cacheable answer for this tuple.
			return err
		}
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		return data
	})
	switch resp := v.(type) {
	case []byte:
		writeBody(w, http.StatusOK, resp)
	case error:
		writeExplainError(w, resp)
	default:
		writeError(w, http.StatusInternalServerError, "internal: bad cache entry")
	}
}

// predict answers req from the price table of its (toolchain, machine)
// pair. The first request of a pair builds the table; concurrent first
// requests of one pair coalesce onto one build.
func (s *Server) predict(req explain.Request) (explain.Prediction, error) {
	tc, m, err := req.Pair()
	if err != nil {
		return explain.Prediction{}, err
	}
	key := tc.Name + "|" + tc.Version + "|" + m.Name
	t := s.prices.Run(pricesEntry, key, func() any { return explain.PricePair(tc, m) })
	return t.(*explain.PairPrices).Predict(req)
}

// writeExplainError maps the explain library's typed errors onto HTTP
// statuses: unknown names are 404s, structurally invalid queries 400s.
func writeExplainError(w http.ResponseWriter, err error) {
	var ue *explain.UnknownError
	if errors.As(err, &ue) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	var be *explain.BadRequestError
	if errors.As(err, &be) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// writeDecodeError maps body-decoding failures: an oversized body is
// 413, anything else malformed is 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large")
		return
	}
	writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error())
}

// static marshals a value once and serves the bytes thereafter — the
// discovery and roofline endpoints are pure functions of the compiled-in
// model, so their bodies never change over a server's lifetime.
type static struct {
	once sync.Once
	data []byte
	err  error
}

func (c *static) serve(w http.ResponseWriter, build func() any) {
	c.once.Do(func() { c.data, c.err = json.Marshal(build()) })
	if c.err != nil {
		writeError(w, http.StatusInternalServerError, "encoding response")
		return
	}
	writeBody(w, http.StatusOK, c.data)
}

var (
	rooflineCache   static
	toolchainsCache static
	loopsCache      static
	machinesCache   static
)

// discovery wraps a list in a named envelope so the response is an
// object (extensible) rather than a bare array.
type discovery[T any] struct {
	Items []T `json:"items"`
}

func (s *Server) handleRoofline(w http.ResponseWriter, r *http.Request) {
	rooflineCache.serve(w, func() any { return explain.Roofline() })
}

func (s *Server) handleToolchains(w http.ResponseWriter, r *http.Request) {
	toolchainsCache.serve(w, func() any { return discovery[explain.ToolchainInfo]{Items: explain.Toolchains()} })
}

func (s *Server) handleLoops(w http.ResponseWriter, r *http.Request) {
	loopsCache.serve(w, func() any { return discovery[explain.LoopInfo]{Items: explain.Loops()} })
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	machinesCache.serve(w, func() any { return discovery[explain.MachineInfo]{Items: explain.Machines()} })
}

// healthResponse is the /healthz body.
type healthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Inflight int64  `json:"inflight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{Status: "ok", Inflight: s.inflight.Load()}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var tenants int
	var rejected int64
	if s.limiter != nil {
		tenants, rejected = s.limiter.stats()
	}
	var sb strings.Builder
	s.metrics.render(&sb, s.engine.MemoMetrics(), s.inflight.Load(), tenants, rejected)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(sb.String()))
}
