package serve

import (
	"sync/atomic"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// A dispatch's phase word: the worker and its hang watchdog race on it
// with one CAS each, and whoever moves it out of phaseDecoding owns the
// dispatch's lanes, decoder and batch from then on.
const (
	phaseIdle      int32 = iota // between dispatches; a watchdog firing here is spent
	phaseDecoding               // armed: the worker is inside the decoder
	phaseAbandoned              // the watchdog won: the goroutine is written off
)

// workerState is everything one worker goroutine owns. The decode runs
// on the worker itself, so what makes a hung decoder survivable is
// ownership: the worker decodes from its own copies of the syndromes
// (syns) and trace decisions (jobs) into its own outputs (outs, stats)
// and records into its own single-writer span ring. When the watchdog
// abandons it, the failed requests are recycled at once while the stuck
// decoder may use these lanes for as long as it likes — nothing else
// ever will, because the replacement worker brings its own.
type workerState struct {
	id    uint16
	dec   core.Decoder // owned across dispatches; nil until the first and after a quarantine
	syn   gf2.Vec      // syndrome-check scratch
	ring  *obs.Ring
	syns  []gf2.Vec
	jobs  []decodeJob
	outs  []gf2.Vec
	stats []core.Stats

	// The watchdog: phase arbitrates, timer fires Service.abandon after
	// HangTimeout inside one decode, lanes is the dispatch it would
	// settle (written before the arm), and fired reports a firing that
	// lost the race, so the worker never re-arms under a late callback.
	phase atomic.Int32
	timer *time.Timer
	fired chan struct{}
	lanes []*request
}

// decodeJob is what guardedDecode needs to know about one lane: whether
// it is sampled and the decode id its probe spans carry. It is staged
// before the watchdog is armed: from the arm until the worker wins the
// phase CAS the requests may be failed and recycled under it, so nothing
// they own is read in between.
type decodeJob struct {
	sampled bool
	id      uint64
}

// decodeOutcome reports one dispatch; the results are in outs/stats.
type decodeOutcome struct {
	badLen   bool // the decoder returned a vector that is not of mechanism length
	panicked bool
}

func (s *Service) newWorkerState(id uint16) *workerState {
	w := &workerState{
		id:    id,
		syn:   gf2.NewVec(s.model.NumDet),
		ring:  s.tracer.Ring(),
		syns:  make([]gf2.Vec, s.cfg.MaxBatch),
		jobs:  make([]decodeJob, s.cfg.MaxBatch),
		outs:  make([]gf2.Vec, s.cfg.MaxBatch),
		stats: make([]core.Stats, s.cfg.MaxBatch),
		fired: make(chan struct{}, 1),
	}
	for i := range w.syns {
		w.syns[i] = gf2.NewVec(s.model.NumDet)
		w.outs[i] = gf2.NewVec(s.model.NumMech())
	}
	w.timer = time.AfterFunc(time.Hour, func() { s.abandon(w) })
	w.timer.Stop()
	return w
}

// decode runs one dispatch over the lanes staged in syns and jobs under
// the hang watchdog and reports whether the worker still owns it. false
// means the watchdog fired first: the lanes are failed, the batch
// recycled, a replacement worker running, and the caller must return at
// once without touching anything but w.
func (w *workerState) decode(hang time.Duration, lanes []*request) (o decodeOutcome, owned bool) {
	w.lanes = lanes
	w.phase.Store(phaseDecoding)
	w.timer.Reset(hang)
	w.guardedDecode(&o)
	if !w.phase.CompareAndSwap(phaseDecoding, phaseIdle) {
		return o, false
	}
	if !w.timer.Stop() {
		// The timer fired but its callback lost (or is about to lose) the
		// CAS. Wait for it: re-arming first would let that late callback
		// find phaseDecoding and abandon the next dispatch.
		<-w.fired
	}
	return o, true
}

// guardedDecode loops the decoder over syns[:len(lanes)] into the
// worker-owned outs, arming the probe for each sampled lane under that
// lane's id, with panic isolation: a panicking decoder marks the outcome
// instead of crashing the process, and the length check turns a
// defective result into badLen instead of a CopyFrom panic.
func (w *workerState) guardedDecode(o *decodeOutcome) {
	defer o.catch()
	probe := obs.ProbeOf(w.dec)
	n := len(w.lanes) // the slice header is the worker's; the requests behind it are not read
	for i := 0; i < n; i++ {
		if job := w.jobs[i]; job.sampled {
			probe.Activate(w.ring, job.id)
		}
		est, stats := w.dec.Decode(w.syns[i])
		probe.Deactivate()
		if est.Len() != w.outs[i].Len() {
			o.badLen = true
			break
		}
		w.outs[i].CopyFrom(est)
		w.stats[i] = stats
	}
}

// catch records a recovered decoder panic (deferred from guardedDecode).
func (o *decodeOutcome) catch() {
	if recover() != nil {
		o.panicked = true
	}
}

// abandon is w's watchdog callback. If the worker got to the phase
// word first the firing is spent and only says so. Otherwise the decode
// has been running for HangTimeout and this call takes the dispatch
// over: it quarantines the decoder, fails the lanes, does the worker's
// epilogue and starts the replacement, which inherits w's WaitGroup
// slot. The stuck goroutine loses the CAS whenever its decode returns
// and exits without a word.
func (s *Service) abandon(w *workerState) {
	if !w.phase.CompareAndSwap(phaseDecoding, phaseAbandoned) {
		w.fired <- struct{}{}
		return
	}
	s.met.decoderHangs.Add(1)
	s.quarantine(w.lanes)
	s.load.Add(-1)
	s.signalIdle()
	s.putBatch(w.lanes)
	go s.worker(w.id) // takes over the abandoned worker's wg slot; exits when the batcher closes work
}
