package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestProbeSkew pins the fault-injection clock-skew hook: an active
// probe's clock reads shift by the configured skew, the shared disabled
// probe ignores it, and deactivation leaves the skew harmless.
func TestProbeSkew(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	ring := tr.Ring()
	p := NewProbe()
	p.Activate(ring, 1)
	const skew = int64(1e15)
	p.SetSkew(skew)
	if got := p.Tick(); got < skew/2 {
		t.Fatalf("skewed Tick = %d, want >= %d", got, skew/2)
	}
	p.SetSkew(0)
	p.Deactivate()
	if got := p.Tick(); got != 0 {
		t.Fatalf("inactive Tick = %d, want 0", got)
	}

	// The shared disabled probe must ignore skew (it is cross-goroutine
	// shared state).
	dp := ProbeOf(42)
	dp.SetSkew(skew)
	if dp.skew != 0 {
		t.Fatal("disabled probe accepted a skew")
	}
}

// TestTraceClampsNegativeDurations records a span whose skewed end
// precedes its start and asserts the Chrome export clamps the duration
// at zero instead of emitting a negative one.
func TestTraceClampsNegativeDurations(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	ring := tr.Ring()
	p := NewProbe()
	p.Activate(ring, 7)
	p.SetSkew(-int64(time.Hour))
	start := Tick() // unskewed "earlier" edge, far ahead of the skewed clock
	if now := p.SpanSince(StageDecode, 0, start); now >= start {
		t.Fatalf("skewed SpanSince returned %d, want < start %d", now, start)
	}
	p.SetSkew(0)
	p.Deactivate()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
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
