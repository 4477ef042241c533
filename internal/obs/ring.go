package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// slot is one ring entry. Every field is atomic so a drainer can read
// concurrently with the single writer without locks or data races; seq
// doubles as a validity tag (0 = never written, otherwise 1 + the write
// index) so a drainer can detect a slot it raced with and skip it.
type slot struct {
	seq   atomic.Uint64
	meta  atomic.Uint64 // Stage<<56 | Arg<<32 | ID
	start atomic.Int64
	end   atomic.Int64
}

// Ring is a fixed-capacity single-writer span buffer. Record never
// blocks and never allocates: when the ring is full it overwrites the
// oldest span (drop-oldest). One goroutine owns the writing side (the
// serve worker, the sim worker, the batcher); Snapshot may run
// concurrently from any goroutine.
type Ring struct {
	slots []slot
	head  atomic.Uint64 // next write index; published after the slot
	id    int32         // trace-event tid, assigned by the Tracer
}

// NewRing builds a ring holding up to capSpans spans (minimum 16).
func NewRing(capSpans int) *Ring {
	if capSpans < 16 {
		capSpans = 16
	}
	return &Ring{slots: make([]slot, capSpans)}
}

// Cap is the fixed span capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Record appends one span, overwriting the oldest when full. Never
// blocks, never allocates. Must only be called from the ring's owning
// goroutine.
func (r *Ring) Record(st Stage, arg int32, id uint32, start, end int64) {
	i := r.head.Load()
	s := &r.slots[i%uint64(len(r.slots))]
	s.seq.Store(0) // invalidate for concurrent drainers
	s.meta.Store(uint64(st)<<56 | uint64(uint32(arg)&0xffffff)<<32 | uint64(id))
	s.start.Store(start)
	s.end.Store(end)
	s.seq.Store(i + 1)
	r.head.Store(i + 1)
}

// Snapshot appends the ring's current spans to dst, oldest first, and
// returns the extended slice. Spans overwritten mid-read are skipped
// rather than returned torn.
func (r *Ring) Snapshot(dst []Span) []Span {
	h := r.head.Load()
	n := uint64(len(r.slots))
	lo := uint64(0)
	if h > n {
		lo = h - n
	}
	for i := lo; i < h; i++ {
		s := &r.slots[i%n]
		if s.seq.Load() != i+1 {
			continue // racing writer owns this slot now
		}
		meta := s.meta.Load()
		start, end := s.start.Load(), s.end.Load()
		if s.seq.Load() != i+1 {
			continue // overwritten while reading
		}
		arg := int32(meta >> 32 & 0xffffff)
		if arg&0x800000 != 0 {
			arg |= ^int32(0xffffff) // sign-extend 24-bit args
		}
		dst = append(dst, Span{
			Stage: Stage(meta >> 56),
			Arg:   arg,
			ID:    uint32(meta),
			Start: start,
			End:   end,
		})
	}
	return dst
}

// TracerConfig shapes a Tracer.
type TracerConfig struct {
	// SampleEvery traces one in every N decodes (default 8; 1 traces
	// everything, 0 uses the default).
	SampleEvery uint64
	// RingSpans is the per-goroutine ring capacity (default 1024).
	RingSpans int
}

// Tracer owns the set of per-goroutine span rings and the sampling
// decision. Rings register at goroutine startup (allocating, once);
// recording goes straight to the goroutine-owned ring with no
// coordination. Draining walks all registered rings.
type Tracer struct {
	cfg     TracerConfig
	enabled atomic.Bool
	seq     atomic.Uint64

	mu    sync.Mutex
	rings []*Ring
}

// NewTracer builds an enabled tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 8
	}
	if cfg.RingSpans <= 0 {
		cfg.RingSpans = 1024
	}
	t := &Tracer{cfg: cfg}
	t.enabled.Store(true)
	return t
}

// SetEnabled toggles tracing globally. Disabled tracing reduces the
// hot-path cost to one atomic load per decode.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether tracing is on.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Ring registers and returns a new span ring for the calling goroutine.
// Call once per long-lived worker, not per decode (it allocates).
func (t *Tracer) Ring() *Ring {
	r := NewRing(t.cfg.RingSpans)
	t.mu.Lock()
	r.id = int32(len(t.rings))
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// NextID draws the next decode id. IDs are globally ordered across all
// users of the tracer so ShouldSample gives a uniform 1-in-N sample.
func (t *Tracer) NextID() uint64 { return t.seq.Add(1) }

// ShouldSample reports whether the decode with the given id is traced:
// tracing is enabled and the id falls on the 1-in-SampleEvery lattice.
func (t *Tracer) ShouldSample(id uint64) bool {
	return t.enabled.Load() && id%t.cfg.SampleEvery == 0
}

// Spans gathers every registered ring's current contents, ordered by
// start time. Rendering-path only (allocates).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	rings := append([]*Ring(nil), t.rings...)
	t.mu.Unlock()
	var out []Span
	for _, r := range rings {
		out = r.Snapshot(out)
	}
	sortSpans(out)
	return out
}

// snapshotPerRing snapshots every ring separately so the Chrome export
// can attribute spans to the goroutine (tid) that recorded them.
func (t *Tracer) snapshotPerRing() [][]Span {
	t.mu.Lock()
	rings := append([]*Ring(nil), t.rings...)
	t.mu.Unlock()
	out := make([][]Span, len(rings))
	for i, r := range rings {
		out[i] = r.Snapshot(nil)
	}
	return out
}

func sortSpans(s []Span) {
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
}

// Probe is a decoder-held recording handle. A decoder owns exactly one
// Probe for its lifetime; the decode boundary (serve worker, sim
// worker, trace capture) activates it with a ring and a decode id for
// the duration of a sampled Decode call and deactivates it after.
// While inactive, the decoder's span edges cost one branch each and
// read no clock.
//
// A Probe is owned by whoever exclusively holds its decoder (the pool
// hand-off provides the happens-before edge), so its fields need no
// atomics.
type Probe struct {
	ring   *Ring
	id     uint32
	active bool
	noop   bool // the shared disabled probe; Activate is ignored
	// skew offsets every clock read while the probe is active. It
	// models a skewed time source (fault injection): span edges shift
	// and can even run backwards relative to spans recorded by an
	// unskewed goroutine, which the renderers must tolerate. Zero in
	// production.
	skew int64
}

// NewProbe returns an inactive probe (decoder construction time).
func NewProbe() *Probe { return &Probe{} }

// disabledProbe is handed out for decoders that carry no probe. It is
// shared across goroutines, so Activate must leave it untouched.
var disabledProbe = &Probe{noop: true}

// Probed is implemented by decoders that expose their recording probe.
type Probed interface{ Probe() *Probe }

// ProbeOf returns x's probe, or a shared permanently-inactive probe if
// x records nothing. The result is always non-nil, so call sites need
// no nil checks.
func ProbeOf(x any) *Probe {
	if p, ok := x.(Probed); ok {
		if pr := p.Probe(); pr != nil {
			return pr
		}
	}
	return disabledProbe
}

// Activate arms the probe for one sampled decode: spans record into r
// under decode id.
func (p *Probe) Activate(r *Ring, id uint64) {
	if p.noop {
		return
	}
	p.ring = r
	p.id = uint32(id)
	p.active = true
}

// Deactivate disarms the probe after the sampled decode completes.
func (p *Probe) Deactivate() {
	if p.noop {
		return
	}
	p.active = false
	p.ring = nil
}

// Active reports whether a sampled decode is in flight.
func (p *Probe) Active() bool { return p.active }

// SetSkew offsets the probe's clock reads by ns (fault injection:
// "clock skew on the probe"). Call only while holding the probe's
// decoder exclusively — same ownership rule as Activate. No-op on the
// shared disabled probe.
func (p *Probe) SetSkew(ns int64) {
	if p.noop {
		return
	}
	p.skew = ns
}

// Tick returns the clock if the probe is active and 0 otherwise. Hot
// loops open their first span edge with this so an untraced decode
// never reads the clock.
func (p *Probe) Tick() int64 {
	if !p.active {
		return 0
	}
	return Tick() + p.skew
}

// SpanSince records [start, now] for stage st and returns now, so
// consecutive stages share a single clock read per edge. No-op
// (returning 0) while inactive.
func (p *Probe) SpanSince(st Stage, arg int, start int64) int64 {
	if !p.active {
		return 0
	}
	now := Tick() + p.skew
	p.ring.Record(st, int32(arg), p.id, start, now)
	return now
}
