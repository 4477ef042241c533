// Package core assembles the complete Vegapunk decoder — an offline
// decoupling artifact plus the online hierarchical algorithm — and wraps
// every baseline decoder behind one interface, Decoder, so the simulation
// harness, the accelerator models and the serving layer can treat them
// uniformly. Decoder (one syndrome in, one correction out) is the whole
// contract between a decoder and its callers: there is no batch
// capability to detect, and micro-batching is serve's dispatch.
package core

import (
	"fmt"

	"vegapunk/internal/bp"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/lsd"
	"vegapunk/internal/obs"
	"vegapunk/internal/osd"
)

// Stats carries per-decode execution metadata consumed by the
// accelerator latency models.
type Stats struct {
	// BPIters is the message-passing iteration count (BP-family
	// decoders).
	BPIters int
	// BPConverged reports whether plain BP sufficed.
	BPConverged bool
	// Fallback reports whether OSD/LSD post-processing ran (BP+OSD and
	// BP+LSD when BP failed to converge).
	Fallback bool
	// Hier is the hierarchical decode trace (Vegapunk only).
	Hier hier.Trace
	// LSDMaxCluster is the largest cluster size (BP+LSD only).
	LSDMaxCluster int
}

// Decoder is the uniform syndrome-decoding interface. The returned
// vector is owned by the decoder and only valid until the next Decode
// call on the same instance (every underlying decoder reuses its result
// buffer); callers that need to retain it must Clone it (or copy it out
// via gf2.CopyVec). Instances are not safe for concurrent use — build
// one per goroutine via a Factory.
//
// Ownership contract: an instance has one owner goroutine for its whole
// life (a serve worker, a sim.RunMemory worker) and is never lent.
// Every decoder fully re-initializes its scratch from the syndrome at
// the top of Decode — results depend only on the argument, never on
// call history — so the owner needs no Reset hook between calls, and a
// faulty instance is replaced by building another. Any result that must
// outlive the owner's next Decode is copied out first.
type Decoder interface {
	// Name identifies the decoder in experiment output.
	Name() string
	// Decode maps a syndrome to an estimated mechanism vector.
	Decode(syndrome gf2.Vec) (gf2.Vec, Stats)
}

// Factory builds independent decoder instances (one per worker
// goroutine).
type Factory func() Decoder

// Tier is always TierFull: every decoder runs the configuration it
// was built with. The type stays only because benchmark/workload.go
// compares serve.Result.Tier and wire.Result.Tier with TierFull.
type Tier uint8

// TierFull is the only tier: the constructed configuration.
const TierFull Tier = 0

// ---- Vegapunk ----

// NewVegapunkFrom builds the paper's decoder, the online hierarchical
// algorithm over an offline decoupling artifact, on the adapter the
// BP-family decoders share.
func NewVegapunkFrom(model *dem.Model, dec *decouple.Decoupling, cfg hier.Config) Decoder {
	online := hier.New(dec, model.LLRs(), cfg)
	return &baseline{name: "Vegapunk", probe: online.Probe(), decode: func(s gf2.Vec) (gf2.Vec, Stats) {
		e, tr := online.Decode(s)
		return e, Stats{Hier: tr}
	}}
}

// ---- Adapter and BP-family baselines ----

// baseline adapts one decoder (Vegapunk, BP, BP+OSD, BP+LSD) to
// Decoder: a name, the inner decoder's probe and a decode that
// translates its result into Stats.
type baseline struct {
	name   string
	probe  *obs.Probe
	decode func(s gf2.Vec) (gf2.Vec, Stats)
}

func (b *baseline) Name() string { return b.name }

// Probe forwards the inner decoder's probe, so one activation traces
// the whole chain (obs.Probed).
func (b *baseline) Probe() *obs.Probe { return b.probe }

func (b *baseline) Decode(s gf2.Vec) (gf2.Vec, Stats) { return b.decode(s) }

// relayLegs is the number of memory legs NewBP may relay a syndrome
// through after the plain one.
const relayLegs = 8

// NewBP wraps the BP decoder the product serves: Relay-BP, min-sum whose
// unsolved syndromes are relayed through up to relayLegs memory legs and
// whose first solution, unless provably of minimum weight, is weighed
// against the next four the chain finds (see package bp). maxIters caps
// each leg and names the decoder; maxIters ≤ 0 uses the paper's default
// of n. The paper's inaccurate BP baseline is NewMinSumBP.
func NewBP(model *dem.Model, maxIters int) Decoder {
	return newBP(model, bp.Config{MaxIters: maxIters, Legs: relayLegs})
}

// NewMinSumBP wraps plain min-sum belief propagation, the paper's FPGA
// baseline of figures 2, 3 and 10. Nothing serves it.
func NewMinSumBP(model *dem.Model, maxIters int) Decoder {
	return newBP(model, bp.Config{MaxIters: maxIters})
}

func newBP(model *dem.Model, cfg bp.Config) Decoder {
	name := "BP"
	if cfg.MaxIters > 0 {
		name = fmt.Sprintf("BP(%d)", cfg.MaxIters)
	}
	d := bp.New(model.Mech, model.LLRs(), cfg)
	return &baseline{name: name, probe: d.Probe(), decode: func(s gf2.Vec) (gf2.Vec, Stats) {
		r := d.Decode(s)
		return r.Error, Stats{BPIters: r.Iters, BPConverged: r.Converged}
	}}
}

// NewBPOSD wraps BP+OSD-CS(t), the accuracy baseline. order ≤ 0 uses the
// paper's CS(7).
func NewBPOSD(model *dem.Model, bpIters, order int) Decoder {
	if order <= 0 {
		order = 7
	}
	d := osd.NewBPOSD(model.Mech, model.LLRs(),
		bp.Config{MaxIters: bpIters},
		osd.Config{Order: order})
	return &baseline{name: fmt.Sprintf("BP+OSD-CS(%d)", order), probe: d.Probe(), decode: func(s gf2.Vec) (gf2.Vec, Stats) {
		r := d.Decode(s)
		return r.Error, Stats{BPIters: r.BPIters, BPConverged: r.BPConverged, Fallback: !r.BPConverged}
	}}
}

// NewBPLSD wraps BP+LSD (30 BP iterations, order 0), per the paper's
// baseline configuration.
func NewBPLSD(model *dem.Model) Decoder {
	d := lsd.New(model.Mech, model.LLRs(), bp.Config{MaxIters: 30})
	return &baseline{name: "BP+LSD", probe: d.Probe(), decode: func(s gf2.Vec) (gf2.Vec, Stats) {
		r := d.Decode(s)
		return r.Error, Stats{BPIters: r.BPIters, BPConverged: r.BPConverged, Fallback: !r.BPConverged, LSDMaxCluster: r.MaxClusterChecks}
	}}
}
