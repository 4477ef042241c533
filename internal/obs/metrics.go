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
