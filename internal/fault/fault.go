// Package fault injects deterministic, seeded faults at two layers:
// Wrap makes a core.Decoder misbehave in situ, and Start puts a TCP
// proxy on a link between router and replica (or any client and
// server). The serving layer's chaos tests, the cluster's
// network-chaos suite, `vegapunkd -chaos` and cmd/netfaultproxy use it
// to prove quarantine, watchdog, rebuild, failover and hedging under
// reproducible failure sequences.
//
// Both layers share one Kind vocabulary, one Plan and one draw: every
// stream — a decoder instance, or one direction of a proxied
// connection — is a PCG seeded with (Plan.Seed, stream id) that picks
// kind k with probability Mix[k] / max(1, ΣMix), Pass taking the rest.
// A fixed plan plus a fixed creation order replays the exact same
// fault schedule, which makes chaos failures debuggable.
package fault

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Kind identifies one injected fault. A layer that does not apply a
// kind lets it pass.
type Kind uint8

// Fault kinds. The order fixes the draw: do not reorder.
const (
	Pass Kind = iota
	// Slow sleeps Plan.SlowFor before a decode, at a link's fault offset,
	// or on every chunk of a slow link phase.
	Slow
	// Crash panics inside Decode with PanicMessage, or hard-closes a link
	// at the fault offset so the peers see ECONNRESET mid-pipeline.
	Crash
	// Corrupt returns a wrong-length result from a decoder, or XORs one
	// forwarded byte with 0xFF: at the fault offset, or once per chunk of
	// a corrupt link phase.
	Corrupt
	// Stall holds a decode until Plan.StallRelease is closed, or for 3 s
	// when it is nil: the hung-worker path. Decoder only.
	Stall
	// Tear splits a forwarded write at the fault offset and pauses
	// Plan.TearPause between the halves. Link only.
	Tear
	// Blackhole swallows every chunk of its phase while the connections
	// stay open: a partition as the endpoints see it. Link only.
	Blackhole

	numKinds
)

var kindNames = [numKinds]string{"pass", "slow", "crash", "corrupt", "stall", "tear", "blackhole"}

// String names the kind for logs, counters and command-line lists.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "invalid"
}

// ParseKind inverts String; it reports false for unknown names.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Phase is one entry of a link's wall-clock schedule: Kind applies to
// every forwarded chunk on every connection for For.
type Phase struct {
	Kind Kind
	For  time.Duration
}

// Plan is a deterministic fault schedule for either layer. The zero
// value injects nothing.
type Plan struct {
	// Seed keys every stream's PCG; the stream id is the second word.
	Seed uint64
	// Mix weights the kinds each stream draws: k with probability
	// Mix[k] / max(1, ΣMix). Decoder plans give probabilities; link plans
	// may give weights, such as corrupt:3, tear:1.
	Mix map[Kind]float64
	// SlowFor is the sleep of a Slow fault (default 2 ms in Wrap, 20 ms
	// in Start).
	SlowFor time.Duration

	// StallRelease, when non-nil, holds every Stall decode until closed,
	// so tests release hung workers on cue.
	StallRelease <-chan struct{}
	// Script, when non-empty, replaces the decoder draw: the i-th decode
	// across all instances of one Wrap injects Script[i], and later
	// decodes pass, so a replacement instance does not re-inject the
	// faults that poisoned its predecessor.
	Script []Kind

	// FaultEvery is a link direction's mean forwarded-byte gap between
	// offset faults, drawn uniformly from [FaultEvery/2, 3·FaultEvery/2);
	// 0 disables them.
	FaultEvery int
	// TearPause separates the halves of a torn write (default 2 ms).
	TearPause time.Duration
	// Phases is the link's wall-clock schedule; the link returns to Pass
	// after the last phase.
	Phases []Phase
}

// Counters aggregate injected faults across every stream of one Wrap
// or one Proxy. All counts are monotonic and safe to read concurrently.
type Counters struct {
	// Ops counts decodes on a decoder and accepted connections on a link.
	Ops atomic.Uint64
	n   [numKinds]atomic.Uint64
}

// Of is the number of faults of kind k injected so far. Of(Pass) is 0;
// Of(Blackhole) counts swallowed chunks.
func (c *Counters) Of(k Kind) uint64 { return c.n[k].Load() }

// Injected is the total number of faults injected so far.
func (c *Counters) Injected() uint64 {
	var sum uint64
	for k := Slow; k < numKinds; k++ {
		sum += c.Of(k)
	}
	return sum
}

// String renders the counts as space-separated key=value pairs for
// exit logs.
func (c *Counters) String() string {
	s := fmt.Sprintf("ops=%d injected=%d", c.Ops.Load(), c.Injected())
	for k := Slow; k < numKinds; k++ {
		s += fmt.Sprintf(" %s=%d", k, c.Of(k))
	}
	return s
}

func (c *Counters) add(k Kind) { c.n[k].Add(1) }

// mix is a Plan's Mix normalised to per-draw probabilities.
type mix [numKinds]float64

func newMix(m map[Kind]float64) *mix {
	var sum float64
	for k := Pass; k < numKinds; k++ {
		sum += m[k]
	}
	norm := max(1, sum)
	w := new(mix)
	for k := Slow; k < numKinds; k++ {
		w[k] = m[k] / norm
	}
	return w
}

// newStream seeds the PCG of stream id under seed.
func newStream(seed, id uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, id)) }

// draw picks one kind with one uniform draw from rng, evaluating the
// kinds in declaration order.
func (w *mix) draw(rng *rand.Rand) Kind {
	u := rng.Float64()
	for k := Slow; k < numKinds; k++ {
		if u < w[k] {
			return k
		}
		u -= w[k]
	}
	return Pass
}
