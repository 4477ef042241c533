package obs

import (
	"math"
	"sync/atomic"
)

// Atomic counters, gauges and fixed-bucket histograms (formerly
// internal/serve/metrics.go, promoted here so the simulator and the
// experiment harness report the same telemetry as the server).
// Observation (the hot path) is a handful of atomic operations and
// allocates nothing; rendering (render.go) is free to allocate.

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (e.g. queue depth).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 sum with CAS, allocation-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-boundary histogram. Buckets are non-cumulative
// internally and rendered cumulatively (Prometheus `le` convention).
type Histogram struct {
	bounds []float64       // upper bounds, ascending
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomicFloat
}

// NewHistogram builds a histogram with the given ascending upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// LatencyBuckets is the bucket layout (1µs .. 1s, roughly logarithmic)
// shared by the replica's per-stage histograms and the router's
// per-replica ones, so the two line up bucket for bucket in dashboards.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
	}
}

// Observe records one sample. Allocation-free.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (the
// boundary of the bucket containing it; +Inf bucket reports the largest
// finite bound). Good enough for logs and tests, not for billing.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// DecodeMetrics is the per-decoder telemetry set promoted out of
// core.Stats: one instance aggregates every decode of one registered
// model. All methods are safe for concurrent use.
type DecodeMetrics struct {
	// Decodes counts Decode calls.
	Decodes Counter
	// BPConverged counts decodes where plain BP reproduced the
	// syndrome.
	BPConverged Counter
	// Fallback counts decodes that engaged OSD/LSD post-processing.
	Fallback Counter
	// BPIters observes the BP iteration count (BP-family decoders).
	BPIters *Histogram
	// HierLevels observes the hierarchical outer-level count
	// (Vegapunk).
	HierLevels *Histogram
	// LSDClusterChecks observes the largest cluster's check count
	// (BP+LSD).
	LSDClusterChecks *Histogram
	// SyndromeWeight observes the Hamming weight of decoded syndromes.
	SyndromeWeight *Histogram
}

// NewDecodeMetrics builds the set with the standard bucket layouts.
func NewDecodeMetrics() *DecodeMetrics {
	return &DecodeMetrics{
		BPIters:          NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
		HierLevels:       NewHistogram(1, 2, 3, 4, 6, 8),
		LSDClusterChecks: NewHistogram(1, 2, 4, 8, 16, 32, 64, 128),
		SyndromeWeight:   NewHistogram(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
	}
}

// Record ingests one decode's execution metadata (the fields of
// core.Stats, passed as scalars to keep obs dependency-free).
// Stage histograms observe only when their stage ran (value > 0);
// SyndromeWeight observes every decode, including weight 0.
// Allocation-free.
func (m *DecodeMetrics) Record(bpIters int, bpConverged, fallback bool, hierLevels, lsdCluster, synWeight int) {
	m.Decodes.Add(1)
	if bpConverged {
		m.BPConverged.Add(1)
	}
	if fallback {
		m.Fallback.Add(1)
	}
	if bpIters > 0 {
		m.BPIters.Observe(float64(bpIters))
	}
	if hierLevels > 0 {
		m.HierLevels.Observe(float64(hierLevels))
	}
	if lsdCluster > 0 {
		m.LSDClusterChecks.Observe(float64(lsdCluster))
	}
	m.SyndromeWeight.Observe(float64(synWeight))
}
