package cluster

import "sync"

// tokenBucket is a small mutex-guarded token bucket over the obs tick
// clock (nanoseconds). Two shapes share it:
//
//   - time-refilled (rate > 0): the per-replica retry budget, which
//     bounds how fast the router may amplify load onto siblings when a
//     replica fails — an unconditional retry turns a brown-out into a
//     retry storm precisely when capacity is scarcest.
//   - deposit-refilled (rate == 0): the hedge-rate cap, which earns
//     HedgeMaxRate tokens per forwarded batch so hedges stay a bounded
//     fraction of traffic even when every batch is slow.
//
// Only arithmetic runs under the mutex: no blocking while it is held.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   int64 // obs tick of the last refill
	rate   float64
	burst  float64
}

// init primes the bucket full at tick now.
func (b *tokenBucket) init(rate, burst float64, now int64) {
	b.mu.Lock()
	b.rate, b.burst, b.tokens, b.last = rate, burst, burst, now
	b.mu.Unlock()
}

func (b *tokenBucket) refillLocked(now int64) {
	if b.rate > 0 && now > b.last {
		b.tokens += float64(now-b.last) / 1e9 * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// take withdraws n tokens at tick now, all or nothing.
func (b *tokenBucket) take(now int64, n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// deposit adds n tokens, capped at burst (deposit-refilled buckets).
func (b *tokenBucket) deposit(n float64) {
	b.mu.Lock()
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// level reports the current token count at tick now (metrics).
func (b *tokenBucket) level(now int64) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	return b.tokens
}
