package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

// decodedTrace mirrors the trace_event JSON for test decoding.
type decodedTrace struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
		Args struct {
			ID  uint32 `json:"id"`
			Arg int32  `json:"arg"`
		} `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func writeTestSpans(tr *Tracer) {
	r1 := tr.Ring()
	r2 := tr.Ring()
	r1.Record(StageQueueWait, 0, 1, 1000, 2000)
	r1.Record(StageDecode, 17, 1, 2000, 9000)
	r2.Record(StageBPIter, 1, 2, 3000, 4000)
}

func TestWriteTraceJSON(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	writeTestSpans(tr)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var got decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(got.TraceEvents))
	}
	for i, e := range got.TraceEvents {
		if e.Ph != "X" || e.Cat != "decode" {
			t.Errorf("event %d: ph=%q cat=%q, want complete decode events", i, e.Ph, e.Cat)
		}
		if i > 0 && e.TS < got.TraceEvents[i-1].TS {
			t.Errorf("events not sorted by ts at %d", i)
		}
	}
	// Spans carry their recording ring as the trace tid (worker lanes).
	first := got.TraceEvents[0]
	if first.Name != StageQueueWait.Name() || first.TID != 0 || first.TS != 1.0 || first.Dur != 1.0 {
		t.Errorf("first event = %+v, want queue_wait on tid 0 at 1µs for 1µs", first)
	}
}

func TestWriteTraceMaxSpans(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	writeTestSpans(tr)
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, 2); err != nil {
		t.Fatal(err)
	}
	var got decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 2 {
		t.Fatalf("got %d events, want the 2 newest", len(got.TraceEvents))
	}
	if got.TraceEvents[len(got.TraceEvents)-1].Name != StageBPIter.Name() {
		t.Errorf("truncation must keep the newest spans, got %+v", got.TraceEvents)
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	writeTestSpans(tr)
	h := TraceHandler(tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decodetrace?n=1", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var got decodedTrace
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 1 {
		t.Errorf("?n=1 returned %d events", len(got.TraceEvents))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/decodetrace?n=-3", nil))
	if rec.Code != 400 {
		t.Errorf("bad n: status %d, want 400", rec.Code)
	}
}

func TestDebugMuxServesPprof(t *testing.T) {
	mux := DebugMux(NewTracer(TracerConfig{}))
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/decodetrace"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Errorf("GET %s: status %d", path, rec.Code)
		}
	}
}

// TestTraceClampsNegativeDurations records a span whose end precedes
// its start and asserts the Chrome export clamps the duration at zero
// instead of emitting a negative one.
func TestTraceClampsNegativeDurations(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	start := Tick()
	tr.Ring().Record(StageDecode, 0, 7, start, start-int64(time.Hour))

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var out decodedTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	for i, ev := range out.TraceEvents {
		if ev.Dur < 0 {
			t.Fatalf("event %d has negative duration %g", i, ev.Dur)
		}
	}
}
