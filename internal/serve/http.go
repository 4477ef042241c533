package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"

	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// maxBodyBytes bounds a decode request body; syndromes are 0/1 strings
// so even large batches stay far below this.
const maxBodyBytes = 8 << 20

// Server is the serving front end: a model registry behind two
// listeners — the JSON HTTP API with admission control and /metrics,
// and the binary wire protocol (ServeWire) for persistent-connection
// hot-path traffic.
type Server struct {
	cfg Config

	mu       sync.RWMutex
	services map[string]*Service
	keys     []string // sorted registration keys

	inflight chan struct{}

	httpRequests Counter
	httpRejected Counter
	httpErrors   Counter
	inflightG    Gauge

	srv *http.Server

	// wire is the binary-protocol endpoint: listeners, connections, the
	// drain flag and the frame loop; wire.go supplies its handler.
	wire        *wire.Server
	wireDecodes Counter
}

// NewServer builds an empty server; register models before serving.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		services: map[string]*Service{},
		inflight: make(chan struct{}, cfg.MaxInFlight),
	}
	s.srv = &http.Server{Handler: s.Handler()}
	s.wire = wire.NewServer(func() wire.Handler { return &wireConn{s: s} })
	return s
}

// Register adds a model under key and starts its service (pool +
// micro-batching queue). decoderName labels the decoder in /v1/models.
func (s *Server) Register(key string, model *dem.Model, decoderName string, factory core.Factory) (*Service, error) {
	if key == "" {
		return nil, errors.New("serve: empty model key")
	}
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %s: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.services[key]; dup {
		return nil, fmt.Errorf("serve: model key %q already registered", key)
	}
	svc := newService(key, model, decoderName, factory, s.cfg)
	s.services[key] = svc
	s.keys = append(s.keys, key)
	sort.Strings(s.keys)
	return svc, nil
}

// Service looks up a registered service by key.
func (s *Server) Service(key string) (*Service, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	svc, ok := s.services[key]
	return svc, ok
}

// snapshot returns the registered services in key order.
func (s *Server) snapshot() []*Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Service, 0, len(s.keys))
	for _, k := range s.keys {
		out = append(out, s.services[k])
	}
	return out
}

// Handler returns the route mux (also usable under httptest).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decode", s.handleDecode)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n") // best-effort: the client is gone if this fails
	})
	if s.cfg.Tracer != nil {
		mux.Handle("/debug/decodetrace", obs.TraceHandler(s.cfg.Tracer))
	}
	return mux
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains gracefully: stop accepting on both listeners, wait
// for in-flight HTTP handlers and wire batches (bounded by ctx), then
// flush and close every service queue.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if werr := s.wire.Shutdown(ctx); err == nil {
		err = werr
	}
	for _, svc := range s.snapshot() {
		svc.Close()
	}
	return err
}

// ---- JSON API ----

type decodeRequest struct {
	Model string `json:"model"`
	// Syndrome is a single 0/1 string; Syndromes a batch. Exactly one
	// of the two must be set.
	Syndrome  string   `json:"syndrome,omitempty"`
	Syndromes []string `json:"syndromes,omitempty"`
}

type decodeResult struct {
	// CorrectionSupport lists the indices of the estimated mechanism
	// vector's set bits.
	CorrectionSupport []int `json:"correction_support"`
	// Observables is the predicted logical observable flips, as a 0/1
	// string.
	Observables string `json:"observables"`
	// Satisfied reports whether the correction reproduces the syndrome.
	Satisfied bool `json:"satisfied"`
	// Weight is the Hamming weight of the correction.
	Weight int `json:"weight"`
	// BPIters is the decoder's message-passing iteration count, when
	// the decoder reports one.
	BPIters int `json:"bp_iters,omitempty"`
	// Per-stage server-side latency breakdown in nanoseconds:
	// admission-to-dispatch wait, the decoder call, and the
	// pool-boundary copy-out (cmd/decodeload aggregates these).
	QueueWaitNs int64 `json:"queue_wait_ns"`
	DecodeNs    int64 `json:"decode_ns"`
	CopyOutNs   int64 `json:"copy_out_ns"`
	// DegradedTier names the degradation tier the decode ran at
	// ("degraded", "minimal"); omitted for a full-fidelity decode.
	DegradedTier string `json:"degraded_tier,omitempty"`
}

type decodeResponse struct {
	Model   string         `json:"model"`
	Decoder string         `json:"decoder"`
	Results []decodeResult `json:"results"`
}

type modelInfo struct {
	Key         string `json:"key"`
	Decoder     string `json:"decoder"`
	Detectors   int    `json:"detectors"`
	Mechanisms  int    `json:"mechanisms"`
	Observables int    `json:"observables"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	if status >= 400 && status != http.StatusServiceUnavailable {
		s.httpErrors.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)}) // best-effort: the client is gone if this fails
}

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// Bounded admission: reject rather than queue unboundedly.
	select {
	case s.inflight <- struct{}{}:
		s.inflightG.Add(1)
		defer func() {
			<-s.inflight
			s.inflightG.Add(-1)
		}()
	default:
		s.httpRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "decode capacity saturated, retry later")
		return
	}

	var req decodeRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "malformed JSON: %v", err)
		return
	}
	svc, ok := s.Service(req.Model)
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown model key %q (see GET /v1/models)", req.Model)
		return
	}
	var raw []string
	switch {
	case req.Syndrome != "" && len(req.Syndromes) > 0:
		s.writeError(w, http.StatusBadRequest, "set either syndrome or syndromes, not both")
		return
	case req.Syndrome != "":
		raw = []string{req.Syndrome}
	case len(req.Syndromes) > 0:
		raw = req.Syndromes
	default:
		s.writeError(w, http.StatusBadRequest, "no syndrome given")
		return
	}
	want := svc.Model().NumDet
	syndromes := make([]gf2.Vec, len(raw))
	for i, str := range raw {
		v, err := parseBits(str)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "syndrome %d: %v", i, err)
			return
		}
		if v.Len() != want {
			s.writeError(w, http.StatusBadRequest, "syndrome %d has %d bits, model %s wants %d", i, v.Len(), req.Model, want)
			return
		}
		syndromes[i] = v
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	results := make([]Result, len(syndromes))
	if err := svc.DecodeBatchInto(ctx, results, syndromes); err != nil {
		c := classify(err)
		if c.retryAfter {
			w.Header().Set("Retry-After", "1")
		}
		if c.msg == "" {
			c.msg = err.Error()
		}
		s.writeError(w, c.http, "%s", c.msg)
		return
	}

	resp := decodeResponse{Model: req.Model, Decoder: svc.DecoderName(), Results: make([]decodeResult, len(results))}
	for i := range results {
		res := &results[i]
		resp.Results[i] = decodeResult{
			CorrectionSupport: res.Correction.Ones(),
			Observables:       res.Observables.String(),
			Satisfied:         res.Satisfied,
			Weight:            res.Correction.Weight(),
			BPIters:           res.Stats.BPIters,
			QueueWaitNs:       res.QueueWaitNs,
			DecodeNs:          res.DecodeNs,
			CopyOutNs:         res.CopyOutNs,
		}
		if res.Tier > core.TierFull {
			resp.Results[i].DegradedTier = res.Tier.String()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp) // best-effort: the client is gone if this fails
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Add(1)
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	svcs := s.snapshot()
	out := make([]modelInfo, len(svcs))
	for i, svc := range svcs {
		m := svc.Model()
		out[i] = modelInfo{
			Key:         svc.Key(),
			Decoder:     svc.DecoderName(),
			Detectors:   m.NumDet,
			Mechanisms:  m.NumMech(),
			Observables: m.NumObs,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct { // best-effort: the client is gone if this fails
		Models []modelInfo `json:"models"`
	}{out})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeServiceFamilies(w, s.snapshot())
	promHeader(w, "vegapunk_serve_http_requests_total", "HTTP API requests received.", "counter")
	fmt.Fprintf(w, "vegapunk_serve_http_requests_total %d\n", s.httpRequests.Load())
	promHeader(w, "vegapunk_serve_http_rejected_total", "HTTP decode requests rejected by admission control (503).", "counter")
	fmt.Fprintf(w, "vegapunk_serve_http_rejected_total %d\n", s.httpRejected.Load())
	promHeader(w, "vegapunk_serve_http_errors_total", "HTTP requests answered with a non-503 error status.", "counter")
	fmt.Fprintf(w, "vegapunk_serve_http_errors_total %d\n", s.httpErrors.Load())
	promHeader(w, "vegapunk_serve_http_inflight", "HTTP decode requests currently admitted.", "gauge")
	fmt.Fprintf(w, "vegapunk_serve_http_inflight %d\n", s.inflightG.Load())
	promHeader(w, "vegapunk_serve_wire_connections_total", "Wire protocol connections accepted.", "counter")
	fmt.Fprintf(w, "vegapunk_serve_wire_connections_total %d\n", s.wire.Accepted())
	promHeader(w, "vegapunk_serve_wire_open_connections", "Wire protocol connections currently open.", "gauge")
	fmt.Fprintf(w, "vegapunk_serve_wire_open_connections %d\n", s.wire.Open())
	promHeader(w, "vegapunk_serve_wire_decodes_total", "Decode frames received over the wire protocol.", "counter")
	fmt.Fprintf(w, "vegapunk_serve_wire_decodes_total %d\n", s.wireDecodes.Load())
	promHeader(w, "vegapunk_serve_wire_protocol_errors_total", "Wire connections terminated by a protocol error.", "counter")
	fmt.Fprintf(w, "vegapunk_serve_wire_protocol_errors_total %d\n", s.wire.ProtocolErrors())
	promHeader(w, "vegapunk_serve_wire_draining", "Whether the wire listener is draining (responses carry the drain flag).", "gauge")
	var draining int64
	if s.wire.Draining() {
		draining = 1
	}
	fmt.Fprintf(w, "vegapunk_serve_wire_draining %d\n", draining)
}

// parseBits parses a 0/1 string into a bit vector.
func parseBits(s string) (gf2.Vec, error) {
	v := gf2.NewVec(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return gf2.Vec{}, fmt.Errorf("invalid bit %q at position %d (want '0' or '1')", s[i], i)
		}
	}
	return v, nil
}
