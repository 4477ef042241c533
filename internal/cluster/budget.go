package cluster

import "sync"

// tokenBucket is the hedge-rate cap: each forwarded primary batch
// deposits HedgeMaxRate tokens and each fired hedge takes one, so
// hedges stay a bounded fraction of traffic even when every batch is
// slow. Only arithmetic runs under the mutex: no blocking while it is
// held.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	burst  float64
}

// init primes the bucket full; it runs before the bucket is shared.
func (b *tokenBucket) init(burst float64) {
	b.tokens, b.burst = burst, burst
}

// take withdraws n tokens, all or nothing.
func (b *tokenBucket) take(n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// deposit adds n tokens, capped at burst.
func (b *tokenBucket) deposit(n float64) {
	b.mu.Lock()
	b.tokens += n
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}
