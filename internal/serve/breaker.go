package serve

import "sync/atomic"

// breaker is the service's circuit breaker over decoder health. Every
// quarantine event (panic, hang, defective result) counts as a failure;
// BreakerThreshold consecutive failures trip the circuit, after which
// submissions fast-fail with ErrCircuitOpen until BreakerCooldown has
// passed. The first request after the cooldown is the half-open probe:
// it goes through, and its outcome either closes the circuit (success)
// or re-trips it (another failure).
//
// All state is atomic; the breaker is shared between the submit path
// (allow), the workers (recordFailure/recordSuccess) and /metrics.
type breaker struct {
	threshold int32
	cooldown  int64 // obs ticks (ns)

	failures  atomic.Int32 // consecutive quarantines since last success
	openUntil atomic.Int64 // tick the circuit stays open through; 0 = closed
	trips     atomic.Uint64
	rejected  atomic.Uint64
}

func newBreaker(threshold int, cooldown int64) *breaker {
	return &breaker{threshold: int32(threshold), cooldown: cooldown}
}

// allow reports whether a submission may proceed at tick now. A
// disabled breaker (threshold <= 0) always allows.
func (b *breaker) allow(now int64) bool {
	if b.threshold <= 0 {
		return true
	}
	until := b.openUntil.Load()
	if until == 0 || now >= until {
		return true
	}
	b.rejected.Add(1)
	return false
}

// recordFailure notes one quarantine event and trips the circuit when
// the consecutive-failure count reaches the threshold.
func (b *breaker) recordFailure(now int64) {
	if b.threshold <= 0 {
		return
	}
	if b.failures.Add(1) >= b.threshold {
		b.failures.Store(0)
		b.openUntil.Store(now + b.cooldown)
		b.trips.Add(1)
	}
}

// recordSuccess resets the consecutive-failure count and closes the
// circuit (the half-open probe succeeded). The loads keep the hot path
// read-only in steady state.
func (b *breaker) recordSuccess() {
	if b.failures.Load() != 0 {
		b.failures.Store(0)
	}
	if b.openUntil.Load() != 0 {
		b.openUntil.Store(0)
	}
}

// open reports whether the circuit is currently open at tick now.
func (b *breaker) open(now int64) bool {
	until := b.openUntil.Load()
	return until != 0 && now < until
}
