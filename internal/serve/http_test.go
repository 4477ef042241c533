package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
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

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestAPIDecodeSingleAndBatch(t *testing.T) {
	srv, svc := newTestServer(t, Config{MaxBatch: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	model := svc.Model()
	syndromes := sampleSyndromes(model, 3, 9)
	key := svc.Key()

	// Single.
	body := fmt.Sprintf(`{"model":%q,"syndrome":%q}`, key, syndromes[0].String())
	resp, raw := postJSON(t, ts.URL+"/v1/decode", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single decode: status %d, body %s", resp.StatusCode, raw)
	}
	var out decodeResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(out.Results))
	}
	// The returned support must reproduce the syndrome when satisfied.
	res := out.Results[0]
	est := gf2.VecFromSupport(model.NumMech(), res.CorrectionSupport)
	if got := model.Syndrome(est).Equal(syndromes[0]); got != res.Satisfied {
		t.Fatalf("satisfied flag %v does not match recomputed check %v", res.Satisfied, got)
	}

	// Batch.
	var sb bytes.Buffer
	fmt.Fprintf(&sb, `{"model":%q,"syndromes":[`, key)
	for i, s := range syndromes {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%q", s.String())
	}
	sb.WriteString(`]}`)
	resp, raw = postJSON(t, ts.URL+"/v1/decode", sb.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch decode: status %d, body %s", resp.StatusCode, raw)
	}
	out = decodeResponse{}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(syndromes) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(syndromes))
	}
}

func TestAPIValidation(t *testing.T) {
	srv, svc := newTestServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	key := svc.Key()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"model": nope`, http.StatusBadRequest},
		{"unknown model", `{"model":"no-such-model","syndrome":"01"}`, http.StatusNotFound},
		{"no syndrome", fmt.Sprintf(`{"model":%q}`, key), http.StatusBadRequest},
		{"both forms", fmt.Sprintf(`{"model":%q,"syndrome":"01","syndromes":["01"]}`, key), http.StatusBadRequest},
		{"bad bit", fmt.Sprintf(`{"model":%q,"syndrome":"01x"}`, key), http.StatusBadRequest},
		{"wrong length", fmt.Sprintf(`{"model":%q,"syndrome":"0101"}`, key), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/decode", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, raw)
		}
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON with error field: %s", tc.name, raw)
		}
	}

	resp, _ := postJSON(t, ts.URL+"/v1/models", `{}`)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models: status %d, want 405", resp.StatusCode)
	}
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
}

func TestAPIOverload503(t *testing.T) {
	model, _ := testModel(t)
	gate := make(chan struct{})
	srv := NewServer(Config{MaxInFlight: 1, MaxBatch: 1, PoolSize: 1, RequestTimeout: 10 * time.Second})
	_, err := srv.Register("gated", model, "gated",
		func() core.Decoder { return &gatedDecoder{model: model, gate: gate} })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		close(gate)
		ts.Close()
		srv.Shutdown(context.Background())
	}()

	syndrome := gf2.NewVec(model.NumDet).String()
	body := fmt.Sprintf(`{"model":"gated","syndrome":%q}`, syndrome)

	first := make(chan struct{})
	go func() {
		defer close(first)
		postJSON(t, ts.URL+"/v1/decode", body)
	}()
	// Wait until the first request holds the only admission slot.
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflightG.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/decode", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if srv.httpRejected.Load() == 0 {
		t.Fatal("rejected counter not incremented")
	}
	gate <- struct{}{} // let the first decode finish
	<-first
}

func TestGracefulDrain(t *testing.T) {
	model, _ := testModel(t)
	gate := make(chan struct{})
	srv := NewServer(Config{MaxBatch: 1, PoolSize: 1, RequestTimeout: 10 * time.Second})
	if _, err := srv.Register("gated", model, "gated",
		func() core.Decoder { return &gatedDecoder{model: model, gate: gate} }); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	url := "http://" + l.Addr().String()

	body := fmt.Sprintf(`{"model":"gated","syndrome":%q}`, gf2.NewVec(model.NumDet).String())
	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/v1/decode", "application/json", strings.NewReader(body))
		if err != nil {
			reqDone <- -1
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(2 * time.Second)
	for srv.inflightG.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Shutdown must wait for the in-flight request, not drop it.
	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	select {
	case <-shutDone:
		t.Fatal("Shutdown returned while a decode was still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	gate <- struct{}{} // release the decode
	if status := <-reqDone; status != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d, want 200", status)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// The drained listener no longer accepts work.
	if _, err := http.Post(url+"/v1/decode", "application/json", strings.NewReader(body)); err == nil {
		t.Fatal("request after shutdown succeeded")
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
		"vegapunk_serve_pool_hits_total",
		"vegapunk_serve_http_requests_total",
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
