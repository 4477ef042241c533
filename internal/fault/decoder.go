package fault

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// PanicMessage is the value a decoder Crash panics with, so recovery
// paths can assert they caught an injected fault and not a real bug.
const PanicMessage = "fault: injected decoder panic"

// Wrap derives a factory whose instances share plan and one Counters.
// Instance i (1-based, in creation order) draws from stream i.
func Wrap(factory core.Factory, plan Plan) (core.Factory, *Counters) {
	if plan.SlowFor <= 0 {
		plan.SlowFor = 2 * time.Millisecond
	}
	w := &wrapped{plan: plan, mix: newMix(plan.Mix)}
	return func() core.Decoder {
		return &decoder{wrapped: w, inner: factory(), rng: newStream(plan.Seed, w.instances.Add(1))}
	}, &w.counters
}

// wrapped is the state one Wrap shares across its instances.
type wrapped struct {
	plan      Plan
	mix       *mix
	counters  Counters
	instances atomic.Uint64
	cursor    atomic.Uint64 // Plan.Script position
}

// decoder wraps a core.Decoder with a fault stream. Like every decoder,
// an instance is not safe for concurrent use.
type decoder struct {
	*wrapped
	inner core.Decoder
	rng   *rand.Rand
	wrong gf2.Vec // lazily sized wrong-length result
}

// Name tags the wrapped decoder so metrics and logs show chaos mode.
func (d *decoder) Name() string { return d.inner.Name() + "+chaos" }

// Probe forwards the inner decoder's recording handle, so tracing works
// through the wrapper.
func (d *decoder) Probe() *obs.Probe { return obs.ProbeOf(d.inner) }

// next draws the fault kind for this decode.
func (d *decoder) next() Kind {
	if len(d.plan.Script) > 0 {
		if i := d.cursor.Add(1) - 1; i < uint64(len(d.plan.Script)) {
			return d.plan.Script[i]
		}
		return Pass
	}
	return d.mix.draw(d.rng)
}

// Decode injects at most one fault, then (except for a crash) forwards
// to the wrapped decoder.
func (d *decoder) Decode(syndrome gf2.Vec) (gf2.Vec, core.Stats) {
	k := d.next()
	d.counters.Ops.Add(1)
	if k == Pass || k > Stall { // the link-only kinds pass too
		return d.inner.Decode(syndrome)
	}
	d.counters.add(k)
	switch k {
	case Slow:
		time.Sleep(d.plan.SlowFor)
	case Crash:
		panic(PanicMessage)
	case Corrupt:
		est, stats := d.inner.Decode(syndrome)
		if d.wrong.Len() != est.Len()+1 {
			d.wrong = gf2.NewVec(est.Len() + 1)
		}
		return d.wrong, stats
	case Stall:
		if d.plan.StallRelease != nil {
			<-d.plan.StallRelease
		} else {
			time.Sleep(3 * time.Second)
		}
	}
	return d.inner.Decode(syndrome)
}
