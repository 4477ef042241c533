package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// slowLogLines writes evs through a slow log and returns its output.
func slowLogLines(evs ...SlowEvent) []byte {
	var buf bytes.Buffer
	l := NewSlowLog(&buf)
	for _, ev := range evs {
		l.Offer(ev)
	}
	l.Close()
	return buf.Bytes()
}

// jsonKeys lists the keys of the JSON object line in order.
func jsonKeys(t *testing.T, line []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	var keys []string
	if _, err := dec.Token(); err != nil { // '{'
		t.Fatal(err)
	}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestSlowLogLine pins one event's log line byte for byte (keys, their
// order, escaping), and checks that a model key holding an invalid
// UTF-8 byte still yields a valid UTF-8 line with the same keys.
func TestSlowLogLine(t *testing.T) {
	ev := SlowEvent{
		ID:             40,
		Model:          `bb-72/bp/p0.001 with "quotes"\and<>&` + "\n\t\x01\x7f",
		Decoder:        "BP(30)",
		SyndromeWeight: 5,
		QueueWaitNs:    1200, DecodeNs: 34000, CopyOutNs: 800, TotalNs: 36000,
		BPIters: 17, HierLevels: 2, Satisfied: true,
	}
	// encoding/json passes DEL through raw: it needs no escape in JSON.
	want := `{"seq":1,"id":40,"model":"bb-72/bp/p0.001 with \"quotes\"\\and<>&\n\t\u0001` + "\x7f" + `",` +
		`"decoder":"BP(30)","syndrome_weight":5,"queue_wait_ns":1200,"decode_ns":34000,` +
		`"copy_out_ns":800,"total_ns":36000,"bp_iters":17,"hier_levels":2,"satisfied":true}` + "\n"
	got := slowLogLines(ev)
	if string(got) != want {
		t.Fatalf("slow-log line:\n got %s\nwant %s", got, want)
	}
	var back SlowEvent
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	ev.Seq = 1
	if back != ev {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, ev)
	}

	bad := slowLogLines(SlowEvent{Model: "bb-72\xff/bp", Decoder: "BP(30)"})
	if !utf8.Valid(bad) {
		t.Fatalf("line for an invalid UTF-8 model key is not UTF-8: %q", bad)
	}
	if keys, wantKeys := jsonKeys(t, bad), jsonKeys(t, got); !slices.Equal(keys, wantKeys) {
		t.Errorf("keys %v, want %v", keys, wantKeys)
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
