package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Service) {
	t.Helper()
	model, factory := testModel(t)
	srv := NewServer(cfg)
	svc, err := srv.Register(ModelKey("BB [[72,12,6]]", "BP", 0.01), model, "BP(30)", factory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv, svc
}

func TestAPIModels(t *testing.T) {
	srv, svc := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Models []modelInfo `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != 1 {
		t.Fatalf("got %d models, want 1", len(out.Models))
	}
	m := out.Models[0]
	if m.Key != svc.Key() || m.Detectors != svc.Model().NumDet || m.Mechanisms != svc.Model().NumMech() {
		t.Fatalf("model info mismatch: %+v", m)
	}

	post, err := http.Post(ts.URL+"/v1/models", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models: status %d, want 405", post.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, svc := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var res Result
	syndromes := sampleSyndromes(svc.Model(), 4, 11)
	for _, s := range syndromes {
		if err := svc.DecodeInto(context.Background(), &res, s); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	for _, want := range []string{
		"# TYPE vegapunk_serve_requests_total counter",
		fmt.Sprintf("vegapunk_serve_requests_total{model=%q} 4", svc.Key()),
		"# TYPE vegapunk_serve_decode_seconds histogram",
		"vegapunk_serve_decode_seconds_bucket{model=",
		`le="+Inf"} 4`,
		"# TYPE vegapunk_serve_queue_depth gauge",
		"vegapunk_serve_pool_misses_total",
		fmt.Sprintf("vegapunk_decode_syndrome_weight_count{model=%q} 4", svc.Key()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	// Exactly one HELP/TYPE header per family.
	if n := strings.Count(text, "# TYPE vegapunk_serve_requests_total counter"); n != 1 {
		t.Errorf("requests_total TYPE header appears %d times, want 1", n)
	}
}

func TestModelKeySlug(t *testing.T) {
	if got, want := ModelKey("BB [[72,12,6]]", "BP", 0.001), "bb-72-12-6/bp/p0.001"; got != want {
		t.Fatalf("ModelKey = %q, want %q", got, want)
	}
	if got, want := ModelKey("HP [[338,2,4]]", "BP+OSD-CS(7)", 0.02), "hp-338-2-4/bp-osd-cs-7/p0.02"; got != want {
		t.Fatalf("ModelKey = %q, want %q", got, want)
	}
}
