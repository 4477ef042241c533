package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// ErrClosed is returned by decode calls on a closed (drained) service.
var ErrClosed = errors.New("serve: service closed")

// ErrDecoderFault is returned when the decoder serving a request
// panicked, hung past Config.HangTimeout, or produced a wrong-length
// result. The faulty instance is quarantined; retrying is reasonable.
var ErrDecoderFault = errors.New("serve: decoder fault")

// request state machine: a waiter and a worker race on completion.
const (
	reqPending   int32 = iota // worker will complete, waiter is waiting
	reqCompleted              // worker finished and signalled done
	reqAbandoned              // waiter gave up (ctx); worker recycles
)

// request is a pooled unit of work. All vectors are owned by the
// request and sized for the service's model, so the steady state reuses
// them without allocating. done is buffered (capacity 1) so a worker's
// completion signal never blocks.
type request struct {
	syndrome    gf2.Vec
	correction  gf2.Vec
	observables gf2.Vec
	stats       core.Stats
	satisfied   bool
	state       atomic.Int32
	done        chan struct{}

	// Resilience: the terminal error for requests that never produced
	// a result (decoder fault).
	err error

	// Observability: the decode id (tracer-issued, or the caller's wire
	// trace id), whether the caller forced span sampling (distributed
	// tracing: the client's sample bit overrides the local lattice), the
	// admission tick, the worker that decoded it, and the measured
	// per-stage breakdown (filled by process, copied into Result at
	// collect).
	id                                                uint64
	forceSample                                       bool
	enq                                               int64
	workerID                                          uint16
	queueWaitNs, batchAssembleNs, decodeNs, copyOutNs int64
}

// Result is a caller-owned decode result. Reusing one Result across
// calls keeps the copy-out at the pool boundary allocation-free.
type Result struct {
	// Err is the lane's terminal error (a decoder fault, the caller's
	// context, a closed service), or nil when the fields below hold
	// this decode's answer. A failed lane leaves them as they were.
	Err error
	// Correction is the estimated mechanism vector (copied out of the
	// decoder at the pool boundary; the caller owns it).
	Correction gf2.Vec
	// Observables is the predicted logical observable flips of the
	// correction.
	Observables gf2.Vec
	// Satisfied reports whether the correction reproduces the request
	// syndrome exactly.
	Satisfied bool
	// Stats is the decoder's per-decode execution metadata.
	Stats core.Stats
	// Per-stage latency breakdown in nanoseconds: admission to
	// dispatch, the micro-batch assembly window the request rode in,
	// the decoder call, and the pool-boundary copy-out.
	QueueWaitNs, BatchAssembleNs, DecodeNs, CopyOutNs int64
	// Deprecated: always core.TierFull, since every decode runs the
	// decoder's constructed configuration. Kept only because
	// benchmark/workload.go still reads it.
	Tier core.Tier
	// WorkerID identifies the worker goroutine that ran the decode
	// (reported in the wire result prefix).
	WorkerID uint16
}

// Service serves decode requests for one registered model: a
// micro-batching queue in front of PoolSize workers, each owning the
// decoder factory builds for it. Construct via Server.Register (or
// newService in tests); safe for concurrent use.
type Service struct {
	key         string
	decoderName string
	model       *dem.Model
	factory     core.Factory
	pool        Pool
	cfg         Config
	met         *serviceMetrics
	tracer      *obs.Tracer  // never nil; disabled stand-in when unset
	slow        *obs.SlowLog // nil when slow logging is off

	in chan *request
	// work carries whole micro-batches (a recycled []*request of
	// capacity MaxBatch) to the workers, one batch per worker at a time.
	work chan []*request
	// load counts dispatched-but-unfinished batches; load == PoolSize
	// (every worker busy with its decoder) means saturation, the only regime
	// where the batcher waits to grow a batch.
	load atomic.Int64
	// idle wakes a batcher holding a batch to grow it: whoever lowers
	// load (a worker done with a batch, or abandon) sends without
	// blocking, so the batch leaves as soon as a worker is free.
	idle chan struct{}

	// Freelists are bounded channels rather than sync.Pools so the
	// steady state stays allocation-free even across GC cycles.
	reqFree   chan *request
	batchFree chan []*request

	mu     sync.RWMutex // guards closed vs. sends on in
	closed bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

func newService(key string, model *dem.Model, decoderName string, factory core.Factory, cfg Config) *Service {
	cfg = cfg.withDefaults()
	tracer := cfg.Tracer
	if tracer == nil {
		// A permanently disabled tracer keeps the hot path free of nil
		// checks: ShouldSample is one atomic load returning false. Nothing
		// records into its rings, so they get the minimum capacity.
		tracer = obs.NewTracer(obs.TracerConfig{RingSpans: 1})
		tracer.SetEnabled(false)
	}
	s := &Service{
		key:         key,
		decoderName: decoderName,
		model:       model,
		factory:     factory,
		cfg:         cfg,
		met:         newServiceMetrics(),
		tracer:      tracer,
		slow:        cfg.SlowLog,
		in:          make(chan *request, cfg.MaxBatch),
		work:        make(chan []*request, cfg.PoolSize),
		idle:        make(chan struct{}, 1),
		// Room for the queue's worth plus one whole call's: the 64 is
		// DecodeBatchInto's stack array and wire's maxPipeline, the most
		// requests one call keeps live until it collects, at any MaxBatch.
		reqFree:   make(chan *request, 4*cfg.MaxBatch+64),
		batchFree: make(chan []*request, 2*cfg.PoolSize+1), // every batch that can exist: queued on work, held by a worker, filling in the batcher
	}
	s.pool.size = cfg.PoolSize
	s.wg.Add(1 + cfg.PoolSize)
	go s.batcher() // exits when Close closes in; reaped by wg.Wait
	for i := 0; i < cfg.PoolSize; i++ {
		go s.worker(uint16(i)) // exits when the batcher closes work; reaped by wg.Wait
	}
	return s
}

// Key is the registry key the service was registered under.
func (s *Service) Key() string { return s.key }

// DecoderName names the underlying decoder (e.g. "BP", "Vegapunk").
func (s *Service) DecoderName() string { return s.decoderName }

// Model returns the served detector error model.
func (s *Service) Model() *dem.Model { return s.model }

// Pool exposes the decoder instance counters (metrics, tests).
func (s *Service) Pool() *Pool { return &s.pool }

// DecodeInto decodes one syndrome, blocking until the result is ready
// or ctx is done. res is overwritten; reusing the same Result keeps the
// call allocation-free in steady state.
func (s *Service) DecodeInto(ctx context.Context, res *Result, syndrome gf2.Vec) error {
	req, err := s.submitTraced(ctx, syndrome, wireTrace{})
	if err != nil {
		return err
	}
	return s.wait(ctx, req, res)
}

// DecodeBatchInto submits all syndromes before collecting any result,
// so one call can fill a whole micro-batch. res must be at least as
// long as syndromes; res[i] receives syndromes[i]'s result, and
// res[i].Err says whether that lane was answered. On error every
// submitted request is still collected, a lane that was never
// submitted carries the submission error, and the call returns the
// first error.
func (s *Service) DecodeBatchInto(ctx context.Context, res []Result, syndromes []gf2.Vec) error {
	if len(res) < len(syndromes) {
		return fmt.Errorf("serve: %d results for %d syndromes", len(res), len(syndromes))
	}
	var lanes [64]*request // keeps the list off the heap for requests of up to 64 syndromes
	reqs := lanes[:0]
	var firstErr error
	for _, syn := range syndromes {
		req, err := s.submitTraced(ctx, syn, wireTrace{})
		if err != nil {
			firstErr = err
			break
		}
		reqs = append(reqs, req)
	}
	for i, req := range reqs {
		if err := s.wait(ctx, req, &res[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for i := len(reqs); i < len(syndromes); i++ {
		res[i].Err = firstErr
	}
	return firstErr
}

// wireTrace carries an externally supplied trace context into
// submitTraced: a nonzero id replaces the tracer-issued decode id so
// replica spans line up with the caller's (router's) spans, and sampled
// forces span recording regardless of the local sampling lattice.
type wireTrace struct {
	id      uint64
	sampled bool
}

// sampled decides whether req's spans are recorded: the caller's
// forced sample bit (when tracing is enabled at all) or the tracer's
// own 1-in-N lattice.
func (s *Service) sampled(req *request) bool {
	if req.forceSample && s.tracer.Enabled() {
		return true
	}
	return s.tracer.ShouldSample(req.id)
}

// submitTraced validates the syndrome, copies it into a pooled request
// and enqueues it on the micro-batching queue. tc is the optional
// external trace context (the wire path's distributed-tracing entry
// point; the zero value means none).
func (s *Service) submitTraced(ctx context.Context, syndrome gf2.Vec, tc wireTrace) (*request, error) {
	if syndrome.Len() != s.model.NumDet {
		return nil, fmt.Errorf("serve: syndrome has %d bits, model %s wants %d",
			syndrome.Len(), s.key, s.model.NumDet)
	}
	req := s.getReq()
	req.syndrome.CopyFrom(syndrome)
	req.state.Store(reqPending)
	if tc.id != 0 {
		req.id = tc.id
	} else {
		req.id = s.tracer.NextID()
	}
	req.forceSample = tc.sampled
	req.batchAssembleNs = 0
	req.workerID = 0
	req.enq = obs.Tick()
	req.err = nil

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.putReq(req)
		return nil, ErrClosed
	}
	// The RLock must span the send: it fences Close's closed+close(in)
	// transition (a send on a closed channel panics). The send itself is
	// bounded by ctx and the batcher drain.
	select {
	case s.in <- req:
		s.mu.RUnlock()
		s.met.queueDepth.Add(1)
		s.met.requests.Add(1)
		return req, nil
	case <-ctx.Done():
		s.mu.RUnlock()
		s.putReq(req)
		return nil, ctx.Err()
	}
}

// wait blocks for the request's completion and copies the result out.
// If ctx wins the race the request is marked abandoned and the worker
// recycles it; if the worker already completed, the result is used.
func (s *Service) wait(ctx context.Context, req *request, res *Result) error {
	select {
	case <-req.done:
		return s.collect(req, res)
	case <-ctx.Done():
		if req.state.CompareAndSwap(reqPending, reqAbandoned) {
			res.Err = ctx.Err()
			return res.Err
		}
		// The worker completed concurrently; its done signal is
		// buffered and must be drained before recycling.
		<-req.done
		return s.collect(req, res)
	}
}

// collect copies the finished request's result into the caller's Result
// at the pool boundary and recycles the request. A request that ended
// in a terminal error (decoder fault) carries no result: the error is
// returned and set as res.Err, and the rest of res is left untouched.
func (s *Service) collect(req *request, res *Result) error {
	res.Err = req.err
	if res.Err != nil {
		s.putReq(req)
		return res.Err
	}
	gf2.CopyVec(&res.Correction, req.correction)
	gf2.CopyVec(&res.Observables, req.observables)
	res.Satisfied = req.satisfied
	res.Stats = req.stats
	res.QueueWaitNs = req.queueWaitNs
	res.BatchAssembleNs = req.batchAssembleNs
	res.DecodeNs = req.decodeNs
	res.CopyOutNs = req.copyOutNs
	res.WorkerID = req.workerID
	s.putReq(req)
	return nil
}

// Close drains the service: pending requests are flushed and completed,
// then the batcher and workers exit. Subsequent decode calls return
// ErrClosed. Safe to call multiple times.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		close(s.in)
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// batcher accumulates requests into micro-batches, whatever the decoder.
// A batch flushes when it reaches MaxBatch, when the MaxWait deadline
// expires, or — the adaptive fast path — as soon as dispatch capacity is
// idle: holding a request to grow the batch only pays off while every
// worker is busy, so under light load requests dispatch immediately, one
// to each idle worker, and under saturation the backlog coalesces into
// full batches. Each flushed batch goes to exactly one worker.
func (s *Service) batcher() {
	defer s.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	ring := s.tracer.Ring()
	for {
		req, ok := <-s.in
		if !ok {
			close(s.work)
			return
		}
		t0 := obs.Tick()
		b := append(s.getBatch(), req) // the append lands in capacity reserved at construction
		timer.Reset(s.cfg.MaxWait)
		timerLive := true
	fill:
		for len(b) < s.cfg.MaxBatch {
			select {
			case req, ok := <-s.in:
				if !ok {
					break fill // flush the tail; the outer receive exits
				}
				b = append(b, req) // into MaxBatch capacity reserved at construction
			default:
				if s.load.Load() < int64(s.cfg.PoolSize) {
					break fill // idle worker: batching gains nothing
				}
				select {
				case req, ok := <-s.in:
					if !ok {
						break fill
					}
					b = append(b, req) // into MaxBatch capacity reserved at construction
				case <-s.idle:
					// A worker freed up: the load check above flushes.
				case <-timer.C:
					timerLive = false
					break fill
				}
			}
		}
		if timerLive && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		now := obs.Tick()
		s.met.assembleSeconds.Observe(obs.DurSeconds(now - t0))
		for _, r := range b {
			r.batchAssembleNs = now - t0
		}
		if s.sampled(req) {
			ring.Record(obs.StageBatchAssemble, int32(len(b)), uint32(req.id), t0, now)
		}
		s.load.Add(1)
		s.met.batchSize.Observe(float64(len(b)))
		s.work <- b
	}
}

// worker is a long-lived dispatch goroutine and the sole owner of its
// decoder: it builds the decoder on its first dispatch (a pool miss) and
// after every quarantine, reuses it on every other dispatch (a hit),
// carries each batch through process — the decode runs right here,
// under the worker's hang watchdog — and recycles the batch. A worker
// the watchdog abandoned mid-decode returns without an epilogue: abandon
// already ran it and started the replacement, which holds this
// goroutine's WaitGroup slot and starts with no decoder.
func (s *Service) worker(id uint16) {
	w := s.newWorkerState(id)
	for b := range s.work {
		if w.dec == nil {
			s.pool.misses.Add(1)
			w.dec = s.factory()
		} else {
			s.pool.hits.Add(1)
		}
		if !s.process(w, b) {
			return
		}
		s.load.Add(-1)
		s.signalIdle()
		s.putBatch(b)
	}
	s.wg.Done()
}

// quarantine handles a decoder fault whose cause the caller has
// counted: fail every lane of the dispatch with ErrDecoderFault. The
// worker drops the faulty instance and builds a replacement on its next
// dispatch.
func (s *Service) quarantine(lanes []*request) {
	for _, req := range lanes {
		s.finish(req, ErrDecoderFault)
	}
}

// process is the one dispatch path: it carries a micro-batch — a single
// request is a batch of one — through one decode on this worker and
// copies everything each caller needs out of the worker-owned outputs
// before the decoder can be reused (the pool boundary ownership rule).
// Per lane it accounts queue wait and stages the syndrome; the decode
// and fault quarantine (panic, wrong-length result) happen once per
// dispatch. It reports false when the hang watchdog took the dispatch
// (and the worker) over mid-decode; the caller must then return at
// once. Stage boundaries are measured with the obs
// package clock; a sampled lane's queue-wait, decode and copy-out spans
// land in the worker's ring, and the decoder's probe records the lane's
// internal stages there too under the lane's own decode id.
func (s *Service) process(w *workerState, lanes []*request) bool {
	t0 := obs.Tick()
	for i, req := range lanes {
		req.queueWaitNs = t0 - req.enq
		req.workerID = w.id
		s.met.queueWaitSeconds.Observe(obs.DurSeconds(req.queueWaitNs))
		sampled := s.sampled(req)
		if sampled {
			w.ring.Record(obs.StageQueueWait, 0, uint32(req.id), req.enq, t0)
		}
		// Staged into worker-owned lanes: the decoder never sees request
		// memory, so an abandoned decode cannot touch a recycled request.
		w.syns[i].CopyFrom(req.syndrome)
		w.jobs[i] = decodeJob{sampled: sampled, id: req.id}
	}
	n := len(lanes)
	lead := lanes[0]
	o, owned := w.decode(s.cfg.HangTimeout, lanes)
	if !owned {
		return false
	}
	t1 := obs.Tick()
	if o.panicked || o.badLen {
		if o.panicked {
			s.met.decoderPanics.Add(1)
		} else {
			s.met.decoderBadResults.Add(1)
		}
		s.quarantine(lanes)
		w.dec = nil // poisoned: the next dispatch builds a replacement
		return true
	}
	if n > 1 {
		s.met.batchedDecodes.Add(1)
		if w.jobs[0].sampled {
			w.ring.Record(obs.StageDecodeBatch, int32(n), uint32(lead.id), t0, t1)
		}
	}
	decodeNs := t1 - t0
	s.met.decodeSeconds.Observe(obs.DurSeconds(decodeNs))
	prev := t1
	for i, req := range lanes {
		req.decodeNs = decodeNs
		est := w.outs[i]
		gf2.CopyVec(&req.correction, est)
		s.model.Mech.MulVecInto(w.syn, est)
		req.satisfied = w.syn.Equal(req.syndrome)
		s.model.Obs.MulVecInto(req.observables, est)
		req.stats = w.stats[i]
		t2 := obs.Tick()
		req.copyOutNs = t2 - prev
		prev = t2
		if s.sampled(req) {
			// Per-lane decode/copy-out spans so a distributed trace can
			// follow any traced lane, not just the batch lead.
			w.ring.Record(obs.StageDecode, int32(req.stats.BPIters), uint32(req.id), t0, t1)
			w.ring.Record(obs.StageCopyOut, 0, uint32(req.id), t2-req.copyOutNs, t2)
		}

		synWeight := req.syndrome.Weight()
		s.met.copyOutSeconds.Observe(obs.DurSeconds(req.copyOutNs))
		s.met.dec.Record(req.stats.BPIters, req.stats.BPConverged, req.stats.Fallback,
			req.stats.Hier.OuterIters, req.stats.LSDMaxCluster, synWeight)
		if !req.satisfied {
			s.met.unsatisfied.Add(1)
		}
		if total := t2 - req.enq; s.slow != nil && total >= int64(slowThreshold) {
			s.slow.Offer(obs.SlowEvent{
				ID:             req.id,
				Model:          s.key,
				Decoder:        s.decoderName,
				SyndromeWeight: synWeight,
				QueueWaitNs:    req.queueWaitNs,
				DecodeNs:       req.decodeNs,
				CopyOutNs:      req.copyOutNs,
				TotalNs:        total,
				BPIters:        req.stats.BPIters,
				HierLevels:     req.stats.Hier.OuterIters,
				Satisfied:      req.satisfied,
			})
		}
		s.finish(req, nil)
	}
	return true
}

// finish completes a request with its terminal outcome: exactly one of
// the waiter wake-up (normal path) or the recycle (the waiter already
// abandoned the request) happens, so every admitted request has
// exactly one terminal owner.
func (s *Service) finish(req *request, err error) {
	req.err = err
	s.met.queueDepth.Add(-1)
	if req.state.CompareAndSwap(reqPending, reqCompleted) {
		req.done <- struct{}{}
	} else {
		// The waiter abandoned the request (ctx); recycle it here.
		s.putReq(req)
	}
}

// signalIdle tells the batcher that load just dropped; a token already
// pending says the same, so the send never blocks.
func (s *Service) signalIdle() {
	select {
	case s.idle <- struct{}{}:
	default:
	}
}

func (s *Service) getReq() *request {
	select {
	case req := <-s.reqFree:
		return req
	default:
		return &request{
			syndrome:    gf2.NewVec(s.model.NumDet),
			correction:  gf2.NewVec(s.model.NumMech()),
			observables: gf2.NewVec(s.model.NumObs),
			done:        make(chan struct{}, 1),
		}
	}
}

func (s *Service) putReq(req *request) {
	select {
	case s.reqFree <- req:
	default: // freelist full; let GC take it
	}
}

func (s *Service) getBatch() []*request {
	select {
	case b := <-s.batchFree:
		return b
	default:
		return make([]*request, 0, s.cfg.MaxBatch)
	}
}

func (s *Service) putBatch(b []*request) {
	select {
	case s.batchFree <- b[:0]:
	default:
	}
}
