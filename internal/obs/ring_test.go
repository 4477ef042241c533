package obs

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRingRecordAndSnapshot(t *testing.T) {
	r := NewRing(16)
	r.Record(StageBPIter, 3, 7, 100, 200)
	r.Record(StageFallback, -5, 8, 200, 350)
	spans := r.Snapshot(nil)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if s := spans[0]; s.Stage != StageBPIter || s.Arg != 3 || s.ID != 7 || s.Start != 100 || s.End != 200 {
		t.Errorf("span 0 = %+v", s)
	}
	// Negative args survive the 24-bit meta packing via sign extension.
	if s := spans[1]; s.Stage != StageFallback || s.Arg != -5 || s.ID != 8 {
		t.Errorf("span 1 = %+v (want Arg=-5)", s)
	}
}

// TestRingDropOldest fills the ring far past capacity: Record must keep
// accepting (drop-oldest, never block) and Snapshot must return exactly
// the newest spans, one per slot, in order.
func TestRingDropOldest(t *testing.T) {
	r := NewRing(16)
	n := 5 * len(r.slots)
	for i := 0; i < n; i++ {
		r.Record(StageDecode, 0, uint32(i), int64(i), int64(i)+1)
	}
	spans := r.Snapshot(nil)
	if len(spans) != len(r.slots) {
		t.Fatalf("got %d spans, want %d", len(spans), len(r.slots))
	}
	for j, s := range spans {
		want := uint32(n - len(r.slots) + j)
		if s.ID != want {
			t.Fatalf("span %d has id %d, want %d (oldest must be dropped)", j, s.ID, want)
		}
	}
}

func TestRingRecordDoesNotAllocate(t *testing.T) {
	r := NewRing(16)
	// Saturate first so every Record overwrites (the worst case).
	for i := 0; i < 2*len(r.slots); i++ {
		r.Record(StageBPIter, 1, uint32(i), int64(i), int64(i)+1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(StageBPIter, 1, 9, 10, 20)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

// TestTracerConcurrentRecordDrain hammers one writer against concurrent
// drainers under -race: every drained span must be internally
// consistent (End = Start+1 by construction), proving the seqlock
// protocol never returns torn reads.
func TestTracerConcurrentRecordDrain(t *testing.T) {
	tr := NewTracer(TracerConfig{RingSpans: 64})
	ring := tr.Ring()
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := int64(0); !stop.Load(); i++ {
			ring.Record(StageDecode, int32(i%100), uint32(i), i, i+1)
		}
	}()
	var drainers sync.WaitGroup
	for d := 0; d < 4; d++ {
		drainers.Add(1)
		go func() {
			defer drainers.Done()
			for k := 0; k < 200; k++ {
				for _, s := range tr.Spans() {
					if s.End != s.Start+1 {
						t.Errorf("torn span: %+v", s)
						return
					}
					if s.ID != uint32(s.Start) {
						t.Errorf("mismatched span fields: %+v", s)
						return
					}
				}
			}
		}()
	}
	drainers.Wait()
	stop.Store(true)
	<-writerDone
}

func TestShouldSample(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 4})
	hits := 0
	for i := 0; i < 100; i++ {
		if tr.ShouldSample(tr.NextID()) {
			hits++
		}
	}
	if hits != 25 {
		t.Errorf("sampled %d of 100 at 1-in-4, want 25", hits)
	}
	off := NewTracer(TracerConfig{})
	if off.Enabled() {
		t.Error("SampleEvery 0 must turn the tracer off")
	}
	for id := uint64(0); id < 16; id++ {
		if off.ShouldSample(id) {
			t.Errorf("tracer with SampleEvery 0 sampled id %d", id)
		}
	}
}

type probedDecoder struct{ p *Probe }

func (d *probedDecoder) Probe() *Probe { return d.p }

func TestProbeOf(t *testing.T) {
	d := &probedDecoder{p: NewProbe()}
	if ProbeOf(d) != d.p {
		t.Error("ProbeOf must return the decoder's own probe")
	}
	p := ProbeOf(struct{}{})
	if p == nil {
		t.Fatal("ProbeOf must never return nil")
	}
	// The shared disabled probe ignores Activate (it is shared across
	// goroutines, so arming it would race).
	p.Activate(NewRing(16), 1)
	if p.active {
		t.Error("disabled probe must stay inactive")
	}
	if p.Tick() != 0 {
		t.Error("inactive probe must not read the clock")
	}
	if p.SpanSince(StageDecode, 0, 0) != 0 {
		t.Error("inactive probe must not record")
	}
}

func TestProbeRecordsWhenActive(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ring := tr.Ring()
	p := NewProbe()
	p.Activate(ring, 42)
	start := p.Tick()
	if start == 0 {
		t.Fatal("active probe must read the clock")
	}
	if now := p.SpanSince(StageBPIter, 3, start); now < start {
		t.Fatalf("SpanSince returned %d < start %d", now, start)
	}
	p.Deactivate()
	spans := ring.Snapshot(nil)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if s := spans[0]; s.Stage != StageBPIter || s.Arg != 3 || s.ID != 42 {
		t.Errorf("span = %+v", s)
	}
}
