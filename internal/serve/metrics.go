package serve

import "vegapunk/internal/obs"

// serviceMetrics is the per-model metric set: the queue/dispatch
// counters plus one latency histogram per pipeline stage and the shared
// decoder telemetry (obs.DecodeMetrics).
type serviceMetrics struct {
	requests    obs.Counter
	unsatisfied obs.Counter
	// batchedDecodes counts multi-request micro-batches decoded in one
	// dispatch.
	batchedDecodes obs.Counter
	queueDepth     obs.Gauge
	batchSize      *obs.Histogram
	// Per-stage latencies: admission to dispatch (queueWaitSeconds),
	// first enqueue to batch flush (assembleSeconds), the decoder call
	// (decodeSeconds), and the pool-boundary copy-out plus syndrome
	// check (copyOutSeconds).
	queueWaitSeconds *obs.Histogram
	assembleSeconds  *obs.Histogram
	decodeSeconds    *obs.Histogram
	copyOutSeconds   *obs.Histogram
	// dec aggregates decoder execution metadata (BP iterations,
	// convergence, fallback engagement, …).
	dec *obs.DecodeMetrics
	// Resilience counters: decoder quarantine causes.
	decoderPanics     obs.Counter
	decoderHangs      obs.Counter
	decoderBadResults obs.Counter
}

func newServiceMetrics() *serviceMetrics {
	return &serviceMetrics{
		batchSize:        obs.NewHistogram(1, 2, 4, 8, 16, 32, 64),
		queueWaitSeconds: obs.NewHistogram(obs.LatencyBuckets()...),
		assembleSeconds:  obs.NewHistogram(obs.LatencyBuckets()...),
		decodeSeconds:    obs.NewHistogram(obs.LatencyBuckets()...),
		copyOutSeconds:   obs.NewHistogram(obs.LatencyBuckets()...),
		dec:              obs.NewDecodeMetrics(),
	}
}

// serviceFamilies is the per-model half of the replica's /metrics
// page, one sample per registered service.
var serviceFamilies = []obs.Family[*Service]{
	{Name: "vegapunk_serve_requests_total", Help: "Syndromes decoded.",
		Counter: func(s *Service) uint64 { return s.met.requests.Load() }},
	{Name: "vegapunk_serve_unsatisfied_total", Help: "Decodes whose estimate did not reproduce the syndrome.",
		Counter: func(s *Service) uint64 { return s.met.unsatisfied.Load() }},
	{Name: "vegapunk_serve_batched_decodes_total", Help: "Multi-request micro-batches decoded in one dispatch.",
		Counter: func(s *Service) uint64 { return s.met.batchedDecodes.Load() }},
	{Name: "vegapunk_serve_queue_depth", Help: "Syndromes admitted but not yet decoded.",
		Gauge: func(s *Service) int64 { return s.met.queueDepth.Load() }},
	{Name: "vegapunk_serve_batch_size", Help: "Syndromes per dispatched micro-batch.",
		Hist: func(s *Service) *obs.Histogram { return s.met.batchSize }},
	{Name: "vegapunk_serve_queue_wait_seconds", Help: "Admission-to-dispatch wait per syndrome.",
		Hist: func(s *Service) *obs.Histogram { return s.met.queueWaitSeconds }},
	{Name: "vegapunk_serve_batch_assemble_seconds", Help: "First-enqueue-to-flush assembly time per micro-batch.",
		Hist: func(s *Service) *obs.Histogram { return s.met.assembleSeconds }},
	{Name: "vegapunk_serve_decode_seconds", Help: "Per-syndrome decode latency (decoder call only).",
		Hist: func(s *Service) *obs.Histogram { return s.met.decodeSeconds }},
	{Name: "vegapunk_serve_copy_out_seconds", Help: "Pool-boundary copy-out and syndrome-check time per syndrome.",
		Hist: func(s *Service) *obs.Histogram { return s.met.copyOutSeconds }},
	{Name: "vegapunk_serve_decoder_panics_total", Help: "Decoder instances quarantined after a panic.",
		Counter: func(s *Service) uint64 { return s.met.decoderPanics.Load() }},
	{Name: "vegapunk_serve_decoder_hangs_total", Help: "Decoder instances quarantined after a hung decode.",
		Counter: func(s *Service) uint64 { return s.met.decoderHangs.Load() }},
	{Name: "vegapunk_serve_decoder_bad_results_total", Help: "Decoder instances quarantined after a wrong-length result.",
		Counter: func(s *Service) uint64 { return s.met.decoderBadResults.Load() }},
	{Name: "vegapunk_serve_pool_hits_total", Help: "Dispatches served by the worker's decoder.",
		Counter: func(s *Service) uint64 { return s.pool.Hits() }},
	{Name: "vegapunk_serve_pool_misses_total", Help: "Dispatches that constructed the worker's decoder.",
		Counter: func(s *Service) uint64 { return s.pool.Misses() }},
	{Name: "vegapunk_serve_pool_size", Help: "Decoder instance bound.",
		Gauge: func(s *Service) int64 { return int64(s.pool.Size()) }},
}

// wireFamilies is the listener-wide half of the replica's /metrics
// page, unlabelled.
var wireFamilies = []obs.Family[*Server]{
	{Name: "vegapunk_serve_wire_connections_total", Help: "Wire protocol connections accepted.",
		Counter: func(s *Server) uint64 { return s.wire.Accepted() }},
	{Name: "vegapunk_serve_wire_open_connections", Help: "Wire protocol connections currently open.",
		Gauge: func(s *Server) int64 { return s.wire.Open() }},
	{Name: "vegapunk_serve_wire_decodes_total", Help: "Decode frames received over the wire protocol.",
		Counter: func(s *Server) uint64 { return s.wireDecodes.Load() }},
	{Name: "vegapunk_serve_wire_protocol_errors_total", Help: "Wire connections terminated by a protocol error.",
		Counter: func(s *Server) uint64 { return s.wire.ProtocolErrors() }},
	{Name: "vegapunk_serve_wire_draining", Help: "Whether the wire listener is draining (responses carry the drain flag).",
		Gauge: func(s *Server) int64 { return boolGauge(s.wire.Draining()) }},
}

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
