// Package faultinject wraps any core.Decoder with a deterministic,
// seeded fault plan: slow decodes, panics, wrong-length results,
// stalled workers, and clock skew on the decoder's probe. The serving
// layer's chaos tests and `decodeload -chaos` use it to prove the
// resilience machinery (quarantine, watchdog, circuit breaker, deadline
// shedding) under reproducible failure sequences.
//
// Determinism: each wrapped instance draws from its own PCG stream
// seeded with (Plan.Seed, instance index), so a fixed plan plus a fixed
// instance-creation order replays the exact same fault schedule — the
// property that makes chaos test failures debuggable.
//
// faultinject covers process-level faults (a decoder misbehaving in
// situ); its network-level counterpart is package netfault, a
// deterministic TCP proxy that injects byte corruption, torn writes,
// resets and latency on the wire between router and replica.
package faultinject

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// Kind identifies one injected fault.
type Kind uint8

// Fault kinds. KindNone decodes normally.
const (
	KindNone Kind = iota
	// KindSlow sleeps Plan.SlowFor before decoding (deadline pressure).
	KindSlow
	// KindPanic panics inside Decode (worker quarantine path).
	KindPanic
	// KindWrongLen returns a result vector of the wrong length
	// (defective-decoder detection path).
	KindWrongLen
	// KindStall blocks until Plan.StallRelease is closed (or sleeps
	// Plan.StallFor when nil) before decoding — the hung-worker /
	// watchdog path.
	KindStall
	// KindSkew applies Plan.SkewNs to the decoder's probe for one decode
	// (trace-clamp and monotonicity path).
	KindSkew
)

// String names the fault kind for logs and counters.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSlow:
		return "slow"
	case KindPanic:
		return "panic"
	case KindWrongLen:
		return "wronglen"
	case KindStall:
		return "stall"
	case KindSkew:
		return "skew"
	}
	return "invalid"
}

// PanicMessage is the value passed to panic by KindPanic, so recovery
// paths can assert they caught an injected fault and not a real bug.
const PanicMessage = "faultinject: injected decoder panic"

// Plan is a deterministic fault schedule. Probabilities are evaluated
// per decode in the order slow, panic, wronglen, stall, skew against a
// single uniform draw, so they must sum to at most 1. If Script is
// non-empty it overrides the probabilities entirely; see the Script
// field for its global, non-cycling semantics.
type Plan struct {
	// Seed is the base PRNG seed; instance index is the second word.
	Seed uint64

	PSlow     float64
	PPanic    float64
	PWrongLen float64
	PStall    float64
	PSkew     float64

	// SlowFor is the sleep injected by KindSlow (default 2ms).
	SlowFor time.Duration
	// StallFor bounds a KindStall when StallRelease is nil (default 3s).
	StallFor time.Duration
	// StallRelease, when non-nil, holds every KindStall decode until the
	// channel is closed — tests use it to release hung workers on cue.
	StallRelease <-chan struct{}
	// SkewNs is the probe clock skew injected by KindSkew (default -1ms:
	// negative skew exercises the trace duration clamp).
	SkewNs int64

	// Script, when non-empty, replaces the probabilistic draw with a
	// fixed schedule: the i-th decode across all instances sharing one
	// Counters injects Script[i], and decodes past the end are
	// fault-free. A finite schedule followed by health is exactly what
	// quarantine-recovery tests need — a replacement instance must not
	// re-inject the faults that poisoned its predecessor.
	Script []Kind
}

func (p Plan) withDefaults() Plan {
	if p.SlowFor <= 0 {
		p.SlowFor = 2 * time.Millisecond
	}
	if p.StallFor <= 0 {
		p.StallFor = 3 * time.Second
	}
	if p.SkewNs == 0 {
		p.SkewNs = int64(-time.Millisecond)
	}
	return p
}

// Counters aggregates injected faults across every instance built by
// one Wrap call. All fields are monotonic and safe to read concurrently.
type Counters struct {
	Decodes  atomic.Uint64
	Slow     atomic.Uint64
	Panics   atomic.Uint64
	WrongLen atomic.Uint64
	Stalls   atomic.Uint64
	Skews    atomic.Uint64

	// script is the shared consumption cursor for Plan.Script.
	script atomic.Uint64
}

// Injected is the total number of decodes that drew a fault.
func (c *Counters) Injected() uint64 {
	return c.Slow.Load() + c.Panics.Load() + c.WrongLen.Load() + c.Stalls.Load() + c.Skews.Load()
}

// Decoder wraps a core.Decoder with the fault plan. Like every
// decoder, an instance is not safe for concurrent use.
type Decoder struct {
	inner    core.Decoder
	plan     Plan
	rng      *rand.Rand
	counters *Counters
	wrong    gf2.Vec // lazily sized wrong-length result
}

// New wraps a single decoder instance. instance disambiguates the PRNG
// stream when several instances share one plan (as Wrap arranges).
func New(inner core.Decoder, plan Plan, instance uint64, counters *Counters) *Decoder {
	if counters == nil {
		counters = &Counters{}
	}
	return &Decoder{
		inner:    inner,
		plan:     plan.withDefaults(),
		rng:      rand.New(rand.NewPCG(plan.Seed, instance)),
		counters: counters,
	}
}

// Wrap derives a factory whose instances share one plan and one
// Counters, each with an independent deterministic fault stream.
func Wrap(factory core.Factory, plan Plan) (core.Factory, *Counters) {
	counters := &Counters{}
	var instances atomic.Uint64
	return func() core.Decoder {
		return New(factory(), plan, instances.Add(1), counters)
	}, counters
}

// Name tags the wrapped decoder so metrics and logs show chaos mode.
func (d *Decoder) Name() string { return d.inner.Name() + "+chaos" }

// Probe forwards the inner decoder's recording handle, so tracing works
// through the wrapper.
func (d *Decoder) Probe() *obs.Probe { return obs.ProbeOf(d.inner) }

// Counters exposes the shared fault counters.
func (d *Decoder) Counters() *Counters { return d.counters }

// next draws the fault kind for this decode.
func (d *Decoder) next() Kind {
	if len(d.plan.Script) > 0 {
		if i := d.counters.script.Add(1) - 1; i < uint64(len(d.plan.Script)) {
			return d.plan.Script[i]
		}
		return KindNone
	}
	u := d.rng.Float64()
	for _, f := range [...]struct {
		p float64
		k Kind
	}{
		{d.plan.PSlow, KindSlow},
		{d.plan.PPanic, KindPanic},
		{d.plan.PWrongLen, KindWrongLen},
		{d.plan.PStall, KindStall},
		{d.plan.PSkew, KindSkew},
	} {
		if u < f.p {
			return f.k
		}
		u -= f.p
	}
	return KindNone
}

// Decode injects at most one fault, then (except for panics) forwards
// to the wrapped decoder.
func (d *Decoder) Decode(syndrome gf2.Vec) (gf2.Vec, core.Stats) {
	k := d.next()
	d.counters.Decodes.Add(1)
	switch k {
	case KindSlow:
		d.counters.Slow.Add(1)
		time.Sleep(d.plan.SlowFor)
	case KindPanic:
		d.counters.Panics.Add(1)
		panic(PanicMessage)
	case KindStall:
		d.counters.Stalls.Add(1)
		if d.plan.StallRelease != nil {
			<-d.plan.StallRelease
		} else {
			time.Sleep(d.plan.StallFor)
		}
	case KindSkew:
		d.counters.Skews.Add(1)
		p := obs.ProbeOf(d.inner)
		p.SetSkew(d.plan.SkewNs)
		defer p.SetSkew(0)
	case KindWrongLen:
		d.counters.WrongLen.Add(1)
		est, stats := d.inner.Decode(syndrome)
		if d.wrong.Len() != est.Len()+1 {
			d.wrong = gf2.NewVec(est.Len() + 1)
		}
		return d.wrong, stats
	}
	return d.inner.Decode(syndrome)
}
