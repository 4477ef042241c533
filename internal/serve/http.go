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
	"vegapunk/internal/obs"
	"vegapunk/internal/wire"
)

// Server is the serving front end: a model registry behind two
// listeners — the binary wire protocol (ServeWire), the only way a
// decode arrives, and an HTTP listener for /v1/models, /metrics,
// /healthz and /debug/decodetrace.
type Server struct {
	cfg Config

	mu       sync.RWMutex
	services map[string]*Service
	keys     []string // sorted registration keys

	srv *http.Server

	// wire is the binary-protocol endpoint: listeners, connections, the
	// drain flag and the frame loop; wire.go supplies its handler.
	wire        *wire.Server
	wireDecodes obs.Counter
}

// NewServer builds an empty server; register models before serving.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		services: map[string]*Service{},
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

// Serve accepts HTTP connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves HTTP until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown drains gracefully: stop accepting on both listeners, wait
// for in-flight HTTP handlers and wire runs (bounded by ctx), then
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

type modelInfo struct {
	Key         string `json:"key"`
	Decoder     string `json:"decoder"`
	Detectors   int    `json:"detectors"`
	Mechanisms  int    `json:"mechanisms"`
	Observables int    `json:"observables"`
}

// handleModels lists the registered models: the keys a wire client
// resolves with OpHello, and the dimensions its frames must match.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
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

// handleMetrics renders the replica's exposition: the per-model
// families of every service, then the listener-wide wire families.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	svcs := s.snapshot()
	labels := make([]string, len(svcs))
	for i, svc := range svcs {
		labels[i] = fmt.Sprintf("model=%q", svc.key)
	}
	obs.WriteFamilies(w, serviceFamilies, svcs, labels)
	obs.WriteFamilies(w, wireFamilies, []*Server{s}, nil)
}
