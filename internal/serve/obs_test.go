package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vegapunk/internal/obs"
)

// TestServiceTracingAndSlowLog drives a traced, slow-logged service
// end to end: sampled decodes must land spans in the tracer, the
// /debug/decodetrace route must serve them as valid trace JSON, and
// every decode (threshold 1ns) must emit one parseable slow-log line.
func TestServiceTracingAndSlowLog(t *testing.T) {
	model, factory := testModel(t)
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	var logBuf syncBuffer
	slow := obs.NewSlowLog(&logBuf, 0)
	srv := NewServer(Config{
		MaxBatch: 4, MaxWait: 50 * time.Microsecond, PoolSize: 2,
		Tracer: tracer, SlowLog: slow, SlowThreshold: time.Nanosecond,
	})
	svc, err := srv.Register("trace/bp/p0.010", model, "BP(30)", factory)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const nSyn = 24
	syndromes := sampleSyndromes(model, nSyn, 11)
	var res Result
	for _, syn := range syndromes {
		if err := svc.DecodeInto(context.Background(), &res, syn); err != nil {
			t.Fatal(err)
		}
		if res.DecodeNs <= 0 {
			t.Fatalf("per-stage breakdown missing: %+v", res)
		}
	}

	spans := tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded at SampleEvery=1")
	}
	stages := map[obs.Stage]bool{}
	for _, s := range spans {
		stages[s.Stage] = true
	}
	for _, want := range []obs.Stage{obs.StageQueueWait, obs.StageDecode, obs.StageCopyOut, obs.StageBPIter} {
		if !stages[want] {
			t.Errorf("no %s spans recorded", want.Name())
		}
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decodetrace?n=10", nil))
	if rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
		t.Errorf("/debug/decodetrace: status %d, valid=%v", rec.Code, json.Valid(rec.Body.Bytes()))
	}

	slow.Close()
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != nSyn {
		t.Fatalf("slow log has %d lines, want %d (threshold 1ns catches every decode)", len(lines), nSyn)
	}
	var ev struct {
		Model   string `json:"model"`
		Decoder string `json:"decoder"`
		TotalNs int64  `json:"total_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("slow-log line is not JSON: %v (%s)", err, lines[0])
	}
	if ev.Model != "trace/bp/p0.010" || ev.Decoder != "BP(30)" || ev.TotalNs <= 0 {
		t.Errorf("slow-log event = %+v", ev)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the slow-log writer
// goroutine races the test's read otherwise).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
