package serve

import (
	"fmt"
	"io"

	"vegapunk/internal/obs"
)

// The metric primitives (counters, gauges, fixed-bucket histograms and
// the Prometheus text rendering) live in internal/obs so the simulator
// and the experiment harness report the same telemetry as the server;
// the aliases below keep serve's call sites unchanged.

// Counter is a monotonically increasing metric (alias of obs.Counter).
type Counter = obs.Counter

// Gauge is a value that can go up and down (alias of obs.Gauge).
type Gauge = obs.Gauge

// Histogram is a fixed-boundary histogram (alias of obs.Histogram).
type Histogram = obs.Histogram

// NewHistogram builds a histogram with the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram { return obs.NewHistogram(bounds...) }

// promHeader emits the HELP/TYPE preamble for one family.
func promHeader(w io.Writer, name, help, typ string) { obs.WriteHeader(w, name, help, typ) }

// modelLabels renders the service's label set.
func modelLabels(s *Service) string { return fmt.Sprintf("model=%q", s.key) }

// counterFam renders one counter family across all services.
func counterFam(w io.Writer, name, help string, svcs []*Service, get func(*Service) uint64) {
	promHeader(w, name, help, "counter")
	for _, s := range svcs {
		obs.WriteCounterSample(w, name, modelLabels(s), get(s))
	}
}

// gaugeFam renders one gauge family across all services.
func gaugeFam(w io.Writer, name, help string, svcs []*Service, get func(*Service) int64) {
	promHeader(w, name, help, "gauge")
	for _, s := range svcs {
		obs.WriteGaugeSample(w, name, modelLabels(s), get(s))
	}
}

// histFam renders one histogram family across all services (cumulative
// buckets, _sum, _count).
func histFam(w io.Writer, name, help string, svcs []*Service, get func(*Service) *Histogram) {
	promHeader(w, name, help, "histogram")
	for _, s := range svcs {
		get(s).WriteProm(w, name, modelLabels(s))
	}
}

// serviceMetrics is the per-model metric set: the queue/dispatch
// counters plus one latency histogram per pipeline stage and the shared
// decoder telemetry (obs.DecodeMetrics).
type serviceMetrics struct {
	requests    Counter
	unsatisfied Counter
	batches     Counter
	// batchedDecodes counts multi-request micro-batches decoded in one
	// dispatch.
	batchedDecodes Counter
	queueDepth     Gauge
	batchSize      *Histogram
	// Per-stage latencies: admission to dispatch (queueWaitSeconds),
	// first enqueue to batch flush (assembleSeconds), the decoder call
	// (decodeSeconds), and the pool-boundary copy-out plus syndrome
	// check (copyOutSeconds).
	queueWaitSeconds *Histogram
	assembleSeconds  *Histogram
	decodeSeconds    *Histogram
	copyOutSeconds   *Histogram
	// dec aggregates decoder execution metadata (BP iterations,
	// convergence, fallback engagement, …).
	dec *obs.DecodeMetrics
	// Resilience counters: requests shed on deadline budget, requests
	// decoded at a degraded tier, and decoder quarantine causes.
	shed              Counter
	degraded          Counter
	decoderPanics     Counter
	decoderHangs      Counter
	decoderBadResults Counter
}

func newServiceMetrics() *serviceMetrics {
	return &serviceMetrics{
		batchSize:        NewHistogram(1, 2, 4, 8, 16, 32, 64),
		queueWaitSeconds: NewHistogram(obs.LatencyBuckets()...),
		assembleSeconds:  NewHistogram(obs.LatencyBuckets()...),
		decodeSeconds:    NewHistogram(obs.LatencyBuckets()...),
		copyOutSeconds:   NewHistogram(obs.LatencyBuckets()...),
		dec:              obs.NewDecodeMetrics(),
	}
}

// DecodeMetrics exposes the service's decoder telemetry (tests, cmd).
func (s *Service) DecodeMetrics() *obs.DecodeMetrics { return s.met.dec }

// writeServiceFamilies renders every per-model metric family over the
// given services.
func writeServiceFamilies(w io.Writer, svcs []*Service) {
	counterFam(w, "vegapunk_serve_requests_total", "Syndromes decoded.", svcs,
		func(s *Service) uint64 { return s.met.requests.Load() })
	counterFam(w, "vegapunk_serve_unsatisfied_total", "Decodes whose estimate did not reproduce the syndrome.", svcs,
		func(s *Service) uint64 { return s.met.unsatisfied.Load() })
	counterFam(w, "vegapunk_serve_batches_total", "Micro-batches dispatched.", svcs,
		func(s *Service) uint64 { return s.met.batches.Load() })
	counterFam(w, "vegapunk_serve_batched_decodes_total", "Multi-request micro-batches decoded in one dispatch.", svcs,
		func(s *Service) uint64 { return s.met.batchedDecodes.Load() })
	gaugeFam(w, "vegapunk_serve_queue_depth", "Syndromes admitted but not yet decoded.", svcs,
		func(s *Service) int64 { return s.met.queueDepth.Load() })
	histFam(w, "vegapunk_serve_batch_size", "Syndromes per dispatched micro-batch.", svcs,
		func(s *Service) *Histogram { return s.met.batchSize })
	histFam(w, "vegapunk_serve_queue_wait_seconds", "Admission-to-dispatch wait per syndrome.", svcs,
		func(s *Service) *Histogram { return s.met.queueWaitSeconds })
	histFam(w, "vegapunk_serve_batch_assemble_seconds", "First-enqueue-to-flush assembly time per micro-batch.", svcs,
		func(s *Service) *Histogram { return s.met.assembleSeconds })
	histFam(w, "vegapunk_serve_decode_seconds", "Per-syndrome decode latency (decoder call only).", svcs,
		func(s *Service) *Histogram { return s.met.decodeSeconds })
	histFam(w, "vegapunk_serve_copy_out_seconds", "Pool-boundary copy-out and syndrome-check time per syndrome.", svcs,
		func(s *Service) *Histogram { return s.met.copyOutSeconds })
	counterFam(w, "vegapunk_serve_shed_total", "Requests shed because the deadline budget could not cover p99 decode latency.", svcs,
		func(s *Service) uint64 { return s.met.shed.Load() })
	counterFam(w, "vegapunk_serve_degraded_total", "Requests decoded at a degraded tier.", svcs,
		func(s *Service) uint64 { return s.met.degraded.Load() })
	gaugeFam(w, "vegapunk_serve_degradation_tier", "Active degradation tier (0 full, 1 degraded, 2 minimal).", svcs,
		func(s *Service) int64 { return int64(s.Tier()) })
	counterFam(w, "vegapunk_serve_decoder_panics_total", "Decoder instances quarantined after a panic.", svcs,
		func(s *Service) uint64 { return s.met.decoderPanics.Load() })
	counterFam(w, "vegapunk_serve_decoder_hangs_total", "Decoder instances quarantined after a hung decode.", svcs,
		func(s *Service) uint64 { return s.met.decoderHangs.Load() })
	counterFam(w, "vegapunk_serve_decoder_bad_results_total", "Decoder instances quarantined after a wrong-length result.", svcs,
		func(s *Service) uint64 { return s.met.decoderBadResults.Load() })
	gaugeFam(w, "vegapunk_serve_breaker_open", "Whether the decoder-fault circuit breaker is open (1) or closed (0).", svcs,
		func(s *Service) int64 {
			if s.breaker.open(obs.Tick()) {
				return 1
			}
			return 0
		})
	counterFam(w, "vegapunk_serve_breaker_trips_total", "Circuit breaker trips after repeated decoder quarantines.", svcs,
		func(s *Service) uint64 { return s.breaker.trips.Load() })
	counterFam(w, "vegapunk_serve_breaker_rejected_total", "Submissions fast-failed while the circuit breaker was open.", svcs,
		func(s *Service) uint64 { return s.breaker.rejected.Load() })
	counterFam(w, "vegapunk_serve_pool_hits_total", "Dispatches served by the worker's decoder.", svcs,
		func(s *Service) uint64 { return s.pool.Hits() })
	counterFam(w, "vegapunk_serve_pool_misses_total", "Dispatches that constructed the worker's decoder.", svcs,
		func(s *Service) uint64 { return s.pool.Misses() })
	counterFam(w, "vegapunk_serve_pool_poisoned_total", "Decoder instances removed from the pool after a fault.", svcs,
		func(s *Service) uint64 { return s.pool.Poisoned() })
	gaugeFam(w, "vegapunk_serve_pool_size", "Decoder instance bound.", svcs,
		func(s *Service) int64 { return int64(s.pool.Size()) })
	gaugeFam(w, "vegapunk_serve_pool_created", "Decoder instances constructed.", svcs,
		func(s *Service) int64 { return s.pool.Created() })
	insts := make([]obs.LabelledDecodeMetrics, len(svcs))
	for i, s := range svcs {
		insts[i] = obs.LabelledDecodeMetrics{Labels: modelLabels(s), M: s.met.dec}
	}
	obs.WriteDecodeFamilies(w, insts)
}
