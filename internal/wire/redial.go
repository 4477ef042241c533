package wire

import (
	"math/rand/v2"
	"time"
)

// Redialer dials a wire listener with capped exponential backoff and
// deterministic jitter: the reconnect policy shared by cmd/decodeload
// and anything else that must survive a dead or flapping peer without
// hot-looping against it. The backoff starts at redialMin and doubles
// up to redialMax. Not safe for concurrent use; one Redialer per
// connection slot.
type Redialer struct {
	// Addr is the wire listener to dial.
	Addr string
	// DialTimeout and IOTimeout configure the resulting Client.
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// Seed keys the jitter stream so reconnect storms are reproducible
	// in tests; distinct workers should use distinct seeds so they do
	// not redial in lockstep.
	Seed uint64

	rng   *rand.Rand
	fails int
}

// The redial backoff's first step and its cap.
const (
	redialMin = 25 * time.Millisecond
	redialMax = time.Second
)

// Backoff returns the jittered pause the next Dial will take before
// attempting, given the failures since the last success: zero after a
// success, then redialMin·2^k, capped at redialMax, scaled by a jitter
// factor in [0.5, 1.5).
func (d *Redialer) Backoff() time.Duration {
	if d.fails == 0 {
		return 0
	}
	shift := d.fails - 1
	if shift > 20 {
		shift = 20 // past this the cap always wins; avoid overflow
	}
	b := min(redialMin<<shift, redialMax)
	if d.rng == nil {
		d.rng = rand.New(rand.NewPCG(d.Seed, 0x52454449414c)) // "REDIAL"
	}
	j := 0.5 + d.rng.Float64()
	return time.Duration(float64(b) * j)
}

// Dial sleeps the current jittered backoff (none on the first attempt
// or right after a success) and then dials. On success the backoff
// resets.
func (d *Redialer) Dial() (*Client, error) {
	if b := d.Backoff(); b > 0 {
		time.Sleep(b)
	}
	c, err := Dial(d.Addr, d.DialTimeout, d.IOTimeout)
	if err != nil {
		d.fails++
		return nil, err
	}
	d.fails = 0
	return c, nil
}
