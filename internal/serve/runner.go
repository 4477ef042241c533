package serve

import (
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// runner isolates the decoder call from its worker so a panicking or
// hung decoder cannot take the worker down with it. Each worker owns
// one runner; decodes are handed over on in and results come back on
// out. On a hang the worker abandons the runner (close(in), new
// runner): the hung goroutine's pending send lands in the buffered out
// channel nobody reads, the closed in channel ends its loop when the
// decode finally returns, and nothing leaks.
//
// The runner owns its decode buffers, one lane per request up to the
// service's fill limit: the worker stages the request syndromes into
// syns before each send and the decode writes runner-owned outs and
// stats, so a decode that outlives its requests — the hang case, where
// the requests are failed and recycled while the decoder still runs —
// never touches recycled request memory. It likewise owns its span
// ring: the worker keeps writing its own ring after abandoning a hung
// runner, so the two goroutines must never share one single-writer
// ring.
type runner struct {
	in    chan runnerJob
	out   chan runnerOutcome
	ring  *obs.Ring
	syns  []gf2.Vec
	outs  []gf2.Vec
	stats []core.Stats
}

// runnerJob hands one dispatch (and the decoder to run it on) to a
// runner. The syndromes travel out of band in runner.syns[:lanes]; the
// results land in runner.outs/stats.
type runnerJob struct {
	dec     core.Decoder
	tier    core.Tier
	lanes   int
	sampled bool
	id      uint64
}

// runnerOutcome reports one dispatch back to the worker. The results
// themselves are in the runner-owned outs/stats; the worker copies each
// lane out before its next send.
type runnerOutcome struct {
	tier     core.Tier // tier actually applied by the decoder
	badLen   bool      // a scalar decoder returned a vector that is not of mechanism length
	panicked bool
	panicVal any
}

// newRunner builds and starts a runner for this service's model.
func (s *Service) newRunner() *runner {
	r := &runner{
		in:    make(chan runnerJob),
		out:   make(chan runnerOutcome, 1),
		ring:  s.tracer.Ring(),
		syns:  make([]gf2.Vec, s.fill),
		outs:  make([]gf2.Vec, s.fill),
		stats: make([]core.Stats, s.fill),
	}
	for i := range r.syns {
		r.syns[i] = gf2.NewVec(s.model.NumDet)
		r.outs[i] = gf2.NewVec(s.model.NumMech())
	}
	//vegapunk:goroutine(Service.worker) ranges over in; the worker closes in on exit or abandons the runner after a hang (the closed in ends its loop when the decode returns)
	go r.run() //vegapunk:allow(alloc) one goroutine per runner lifetime, not per decode
	return r
}

// run is the runner goroutine: decode jobs until in closes. The send
// to out never blocks — out has capacity 1 and the worker sends at
// most one job before reading (or abandoning) the outcome.
//
//vegapunk:hotpath
func (r *runner) run() {
	for job := range r.in {
		var o runnerOutcome
		r.guardedDecode(job, &o)
		r.out <- o
	}
}

// guardedDecode applies the degradation tier, arms the probe on a
// sampled decode and runs the decoder over syns[:lanes] with panic
// isolation: a panicking decoder marks the outcome instead of crashing
// the process. A batch-capable decoder takes the lanes as one
// DecodeBatch call into the runner-owned outs; a scalar one is looped
// (core.DecodeBatch's serial fallback, plus the length check that turns
// a defective result into badLen instead of a CopyFrom panic).
//
//vegapunk:hotpath
func (r *runner) guardedDecode(job runnerJob, o *runnerOutcome) {
	defer o.catch()
	o.tier = core.TierFull
	if dd, ok := job.dec.(core.DegradableDecoder); ok {
		o.tier = dd.SetTier(job.tier)
	}
	probe := obs.ProbeOf(job.dec)
	if job.sampled {
		probe.Activate(r.ring, job.id)
	}
	if bd, ok := job.dec.(core.BatchDecoder); ok {
		copy(r.stats, bd.DecodeBatch(r.syns[:job.lanes], r.outs[:job.lanes]))
	} else {
		for i := 0; i < job.lanes; i++ {
			est, stats := job.dec.Decode(r.syns[i])
			if est.Len() != r.outs[i].Len() {
				o.badLen = true
				break
			}
			r.outs[i].CopyFrom(est)
			r.stats[i] = stats
		}
	}
	probe.Deactivate()
}

// catch records a recovered decoder panic (deferred from guardedDecode).
func (o *runnerOutcome) catch() {
	if v := recover(); v != nil {
		o.panicked = true
		o.panicVal = v
	}
}

// workerState bundles a worker goroutine's long-lived resources: the
// currently held decoder, the decode runner, the syndrome-check
// scratch, the span ring and the watchdog timer.
type workerState struct {
	id    uint16
	dec   core.Decoder
	r     *runner
	syn   gf2.Vec
	ring  *obs.Ring
	timer *time.Timer
}
