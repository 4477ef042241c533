package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vegapunk/internal/fault"
	"vegapunk/internal/obs"
)

// TestServiceTracingAndSlowLog drives a traced, slow-logged service
// end to end: sampled decodes must land spans in the tracer, the
// /debug/decodetrace route must serve them as valid trace JSON, and
// the slow log must hold one parseable line for each request that
// reached slowThreshold and none for the rest. Every other decode is
// held past the threshold by an injected Slow fault; the decodes between
// them are fast. Requests go one at a time, so each rides a dispatch of
// its own and its end-to-end time is exactly the sum of its stages: the
// test knows which requests the threshold must keep, even when the host
// stalls a fast one past it.
func TestServiceTracingAndSlowLog(t *testing.T) {
	model, factory := testModel(t)
	const nSyn = 24
	slowFor := slowThreshold + time.Millisecond
	script := make([]fault.Kind, nSyn)
	for i := 0; i < nSyn; i += 2 {
		script[i] = fault.Slow
	}
	factory, _ = fault.Wrap(factory, fault.Plan{Script: script, SlowFor: slowFor})
	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	var logBuf syncBuffer
	slow := obs.NewSlowLog(&logBuf)
	srv := NewServer(Config{
		MaxBatch: 4, MaxWait: 50 * time.Microsecond, PoolSize: 2,
		Tracer: tracer, SlowLog: slow,
	})
	svc, err := srv.Register("trace/bp/p0.010", model, "BP(30)", factory)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	syndromes := sampleSyndromes(model, nSyn, 11)
	var res Result
	var wantTotals []int64 // end-to-end times the slow log must hold
	for i, syn := range syndromes {
		if err := svc.DecodeInto(context.Background(), &res, syn); err != nil {
			t.Fatal(err)
		}
		if res.DecodeNs <= 0 {
			t.Fatalf("per-stage breakdown missing: %+v", res)
		}
		if script[i] == fault.Slow && res.DecodeNs < int64(slowFor) {
			t.Fatalf("decode %d took %v under a Slow fault of %v", i, time.Duration(res.DecodeNs), slowFor)
		}
		if total := res.QueueWaitNs + res.DecodeNs + res.CopyOutNs; total >= int64(slowThreshold) {
			wantTotals = append(wantTotals, total)
		}
	}
	if extra := len(wantTotals) - nSyn/2; extra != 0 {
		t.Logf("%d fast requests reached the threshold on their own", extra)
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
	if len(lines) != len(wantTotals) {
		t.Fatalf("slow log has %d lines, want %d: one per request at or over %v", len(lines), len(wantTotals), slowThreshold)
	}
	var gotTotals []int64
	for _, line := range lines {
		var ev struct {
			Model   string `json:"model"`
			Decoder string `json:"decoder"`
			TotalNs int64  `json:"total_ns"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("slow-log line is not JSON: %v (%s)", err, line)
		}
		if ev.Model != "trace/bp/p0.010" || ev.Decoder != "BP(30)" {
			t.Errorf("slow-log event = %+v", ev)
		}
		gotTotals = append(gotTotals, ev.TotalNs)
	}
	slices.Sort(gotTotals)
	slices.Sort(wantTotals)
	if !slices.Equal(gotTotals, wantTotals) {
		t.Errorf("slow log holds end-to-end times %v, want %v", gotTotals, wantTotals)
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
