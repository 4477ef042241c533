package cluster

import "sync/atomic"

// sloWindow is a rolling window of the router's most recent relayed
// request latencies, scored against a p99-style target at scrape time.
// Observation is lock-free (one atomic add + one atomic store); the
// scan happens only on the cold /metrics path. Slots overwritten while
// a scrape scans are read torn-free per slot (each slot is a single
// atomic), so the burn rate is approximate across a window boundary —
// fine for an alerting gauge.
type sloWindow struct {
	lats []atomic.Int64 // latency ns; sloEmpty = never written
	next atomic.Uint64
}

// sloEmpty marks a slot that has never held an observation.
const sloEmpty = int64(-1)

// sloWindowSize is how many recent requests the window holds.
const sloWindowSize = 1024

func newSLOWindow() *sloWindow {
	w := &sloWindow{lats: make([]atomic.Int64, sloWindowSize)}
	for i := range w.lats {
		w.lats[i].Store(sloEmpty)
	}
	return w
}

// observe records one request latency, overwriting the oldest slot.
func (w *sloWindow) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := w.next.Add(1) - 1
	w.lats[i%uint64(len(w.lats))].Store(ns)
}

// burn returns the window's SLO burn rate — the fraction of recorded
// requests over targetNs divided by the allowed budget fraction — and
// the number of requests currently in the window. Sustained burn > 1
// means the error budget is being spent faster than allowed; an empty
// window burns 0.
func (w *sloWindow) burn(targetNs int64, budget float64) (float64, int) {
	seen, over := 0, 0
	for i := range w.lats {
		v := w.lats[i].Load()
		if v == sloEmpty {
			continue
		}
		seen++
		if v > targetNs {
			over++
		}
	}
	if seen == 0 || budget <= 0 {
		return 0, seen
	}
	return float64(over) / float64(seen) / budget, seen
}
