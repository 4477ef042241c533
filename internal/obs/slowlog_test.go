package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestSlowEventAppendJSON(t *testing.T) {
	ev := SlowEvent{
		Seq: 3, ID: 40,
		Model:          `bb-72/bp/p0.001 with "quotes"\and\n` + "\n\t\x01\x7f",
		Decoder:        "BP(30)",
		SyndromeWeight: 5,
		QueueWaitNs:    1200, DecodeNs: 34000, CopyOutNs: 800, TotalNs: 36000,
		BPIters: 17, HierLevels: 2, Satisfied: true,
	}
	line := ev.AppendJSON(nil)
	if !json.Valid(line) {
		t.Fatalf("invalid JSON: %s", line)
	}
	var got struct {
		Seq            uint64 `json:"seq"`
		ID             uint64 `json:"id"`
		Model          string `json:"model"`
		Decoder        string `json:"decoder"`
		SyndromeWeight int    `json:"syndrome_weight"`
		QueueWaitNs    int64  `json:"queue_wait_ns"`
		DecodeNs       int64  `json:"decode_ns"`
		CopyOutNs      int64  `json:"copy_out_ns"`
		TotalNs        int64  `json:"total_ns"`
		BPIters        int    `json:"bp_iters"`
		HierLevels     int    `json:"hier_levels"`
		Satisfied      bool   `json:"satisfied"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != ev.Seq || got.ID != ev.ID || got.Model != ev.Model ||
		got.Decoder != ev.Decoder || got.SyndromeWeight != ev.SyndromeWeight ||
		got.QueueWaitNs != ev.QueueWaitNs || got.DecodeNs != ev.DecodeNs ||
		got.CopyOutNs != ev.CopyOutNs || got.TotalNs != ev.TotalNs ||
		got.BPIters != ev.BPIters || got.HierLevels != ev.HierLevels ||
		got.Satisfied != ev.Satisfied {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}
}

// gateWriter blocks every Write until released, so tests can hold the
// slow-log writer goroutine mid-write deterministically.
type gateWriter struct {
	entered chan struct{}
	release chan struct{}
	buf     bytes.Buffer
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.buf.Write(p)
}

// fillSlowLog parks the writer inside its Write of a first event, then
// fills the queue behind it, so the next Offer has to drop.
func fillSlowLog(g *gateWriter) *SlowLog {
	l := NewSlowLog(g)
	l.Offer(SlowEvent{Model: "first"})
	<-g.entered // writer now blocked inside Write with the first event
	for range slowLogBuffer {
		l.Offer(SlowEvent{Model: "queued"})
	}
	return l
}

// drainSlowLog releases the writer and closes the log once it has
// written everything queued.
func drainSlowLog(g *gateWriter, l *SlowLog) {
	close(g.release)
	go func() {
		for range g.entered { // the writer's remaining round-trips
		}
	}()
	l.Close()
	close(g.entered)
}

func TestSlowLogDropsWhenFull(t *testing.T) {
	g := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	l := fillSlowLog(g)
	l.Offer(SlowEvent{Model: "dropped"}) // must drop, not block
	if got := l.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want 1", got)
	}
	drainSlowLog(g, l)
	out := g.buf.String()
	if n := strings.Count(out, "\n"); n != 1+slowLogBuffer {
		t.Fatalf("wrote %d lines, want %d", n, 1+slowLogBuffer)
	}
	if !strings.Contains(out, `"seq":1,`) || !strings.Contains(out, fmt.Sprintf(`"seq":%d,`, 1+slowLogBuffer)) {
		t.Errorf("missing sequence numbers:\n%s", out)
	}
	if strings.Contains(out, "dropped") {
		t.Errorf("dropped event was written:\n%s", out)
	}
}

func TestSlowLogOfferDoesNotAllocate(t *testing.T) {
	g := &gateWriter{entered: make(chan struct{}), release: make(chan struct{})}
	l := fillSlowLog(g) // later Offers drop (worst case)
	ev := SlowEvent{Model: "bb-72/bp/p0.001", Decoder: "BP(30)", TotalNs: 1e7}
	allocs := testing.AllocsPerRun(1000, func() { l.Offer(ev) })
	if allocs != 0 {
		t.Fatalf("Offer allocates %.1f times per call, want 0", allocs)
	}
	drainSlowLog(g, l)
}

func FuzzSlowLogJSON(f *testing.F) {
	f.Add("bb-72/bp/p0.001", "BP(30)", int64(12345), uint64(7), true)
	f.Add("quote\"back\\slash", "\n\r\t\x00\x7f", int64(-1), uint64(0), false)
	f.Add("", "", int64(0), uint64(1<<63), true)
	f.Fuzz(func(t *testing.T, model, decoder string, ns int64, id uint64, ok bool) {
		ev := SlowEvent{
			Seq: id, ID: id, Model: model, Decoder: decoder,
			QueueWaitNs: ns, DecodeNs: ns, CopyOutNs: ns, TotalNs: ns,
			SyndromeWeight: int(id % 1000), BPIters: int(ns % 100), Satisfied: ok,
		}
		line := ev.AppendJSON(nil)
		if !json.Valid(line) {
			t.Fatalf("invalid JSON for %+v: %s", ev, line)
		}
		var got struct {
			Model   string `json:"model"`
			Decoder string `json:"decoder"`
			TotalNs int64  `json:"total_ns"`
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("unmarshal: %v (%s)", err, line)
		}
		// Strings must round-trip when they are valid UTF-8 (invalid
		// bytes pass through raw; encoding/json replaces them on decode,
		// so only compare clean inputs).
		if isCleanUTF8(model) && got.Model != model {
			t.Errorf("model round trip: got %q want %q", got.Model, model)
		}
		if isCleanUTF8(decoder) && got.Decoder != decoder {
			t.Errorf("decoder round trip: got %q want %q", got.Decoder, decoder)
		}
		if got.TotalNs != ns {
			t.Errorf("total_ns round trip: got %d want %d", got.TotalNs, ns)
		}
	})
}

// isCleanUTF8 reports whether s is valid UTF-8, the precondition for
// byte-exact string round-tripping through encoding/json.
func isCleanUTF8(s string) bool {
	for _, r := range s {
		if r == 0xFFFD {
			return false
		}
	}
	return true
}
