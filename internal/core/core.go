// Package core assembles the complete Vegapunk decoder — offline
// SMT-style decoupling plus the online hierarchical algorithm — and wraps
// every baseline decoder behind one interface, Decoder, so the simulation
// harness, the accelerator models and the serving layer can treat them
// uniformly. Decoder (one syndrome in, one correction out) is the whole
// contract between a decoder and its callers: there is no batch
// capability to detect, and micro-batching is serve's dispatch.
package core

import (
	"fmt"

	"vegapunk/internal/bp"
	"vegapunk/internal/bpgd"
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
	// BPGDRounds is the decimation round count (BPGD only).
	BPGDRounds int
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

// Tier is a degradation level: how much accuracy a decoder may trade
// for latency when the serving layer is under deadline or queue
// pressure. TierFull is the constructed configuration; higher tiers
// are strictly cheaper and strictly less accurate.
type Tier uint8

// Degradation tiers, cheapest last.
const (
	// TierFull decodes with the constructed configuration.
	TierFull Tier = iota
	// TierDegraded halves the iteration budgets (BP iterations, BPGD
	// rounds, hierarchical outer rounds) but keeps OSD/LSD fallback.
	TierDegraded
	// TierMinimal quarters the iteration budgets and skips the fallback
	// stage entirely (OSD/LSD post-processing, Relay-BP's memory legs):
	// bounded worst-case latency, plain-BP accuracy.
	TierMinimal
)

// MaxTier is the cheapest tier any decoder supports.
const MaxTier = TierMinimal

// String names the tier for metrics and logs.
func (t Tier) String() string {
	switch t {
	case TierFull:
		return "full"
	case TierDegraded:
		return "degraded"
	case TierMinimal:
		return "minimal"
	}
	return "invalid"
}

// DegradableDecoder is implemented by decoders that support the tier
// ladder. SetTier reconfigures subsequent Decode calls and returns the
// tier actually applied (requests above MaxTier clamp); it must be
// cheap and allocation-free — the serving worker calls it before every
// decode. Like Decode, it is not safe for concurrent use on one
// instance.
type DegradableDecoder interface {
	Decoder
	SetTier(t Tier) Tier
}

// clampTier normalizes an out-of-range tier request.
//
//vegapunk:hotpath
func clampTier(t Tier) Tier {
	if t > MaxTier {
		return MaxTier
	}
	return t
}

// tierIters scales an iteration budget for a tier: full, half, quarter
// (never below 1).
//
//vegapunk:hotpath
func tierIters(full int, t Tier) int {
	n := full
	switch t {
	case TierDegraded:
		n = full / 2
	case TierMinimal:
		n = full / 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ---- Vegapunk ----

// Vegapunk is the paper's decoder: offline decoupling + online
// hierarchical decoding.
type Vegapunk struct {
	name      string
	dec       *decouple.Decoupling
	online    *hier.Decoder
	fullOuter int // constructed outer-round cap (TierFull)
}

// BuildVegapunk runs the offline stage on the model's check matrix and
// readies the online decoder. The decoupling is computed once (Decouple
// returns it already validated against the check matrix); clone the
// returned decoder for concurrent use via NewVegapunkFrom.
func BuildVegapunk(model *dem.Model, dopts decouple.Options, cfg hier.Config) (*Vegapunk, error) {
	dec, err := decouple.Decouple(model.CheckMatrix(), dopts)
	if err != nil {
		return nil, fmt.Errorf("vegapunk offline stage: %w", err)
	}
	return NewVegapunkFrom(model, dec, cfg), nil
}

// NewVegapunkFrom builds the online decoder from a pre-computed (stored)
// decoupling artifact — the deployment flow: decouple offline, load
// online.
func NewVegapunkFrom(model *dem.Model, dec *decouple.Decoupling, cfg hier.Config) *Vegapunk {
	online := hier.New(dec, model.LLRs(), cfg)
	return &Vegapunk{
		name:      "Vegapunk",
		dec:       dec,
		online:    online,
		fullOuter: online.MaxIters(),
	}
}

// Name implements Decoder.
func (v *Vegapunk) Name() string { return v.name }

// Probe exposes the online decoder's span-recording handle (obs.Probed).
func (v *Vegapunk) Probe() *obs.Probe { return v.online.Probe() }

// Decode implements Decoder.
func (v *Vegapunk) Decode(s gf2.Vec) (gf2.Vec, Stats) {
	e, tr := v.online.Decode(s)
	return e, Stats{Hier: tr}
}

// SetTier implements DegradableDecoder: outer rounds step down from
// the constructed cap (paper default 3) to full-1 and then 1. The
// hierarchical base solve always runs, so even TierMinimal explains
// the diagonal blocks.
//
//vegapunk:hotpath
func (v *Vegapunk) SetTier(t Tier) Tier {
	t = clampTier(t)
	n := v.fullOuter
	switch t {
	case TierDegraded:
		n = v.fullOuter - 1
	case TierMinimal:
		n = 1
	}
	if n < 1 {
		n = 1
	}
	v.online.SetMaxIters(n)
	return t
}

// Decoupling exposes the offline artifact (for the accelerator model and
// Table 2/3 reporting).
func (v *Vegapunk) Decoupling() *decouple.Decoupling { return v.dec }

// ---- BP-family baselines ----

// baseline adapts one BP-family decoder (BP, BP+OSD, BP+LSD, BPGD) to
// Decoder and DegradableDecoder. The families differ only in the three
// functions; the tier ladder is applied once, here.
type baseline struct {
	name  string
	probe *obs.Probe
	full  int // constructed budget (TierFull): BP iterations, or BPGD rounds
	// decode runs one decode and translates its result.
	decode func(s gf2.Vec) (gf2.Vec, Stats)
	// limit reads the budget currently applied, apply sets a scaled one
	// and switches the fallback stage — OSD/LSD post-processing, relay
	// legs — (ignored where there is none).
	limit func() int
	apply func(budget int, fallback bool)
}

// newBaseline records the constructed budget as the TierFull one.
func newBaseline(name string, probe *obs.Probe, decode func(gf2.Vec) (gf2.Vec, Stats),
	limit func() int, apply func(int, bool)) *baseline {
	return &baseline{name: name, probe: probe, full: limit(), decode: decode, limit: limit, apply: apply}
}

func (b *baseline) Name() string { return b.name }

// Probe forwards the inner BP decoder's probe, so one activation traces
// the whole chain (obs.Probed).
func (b *baseline) Probe() *obs.Probe { return b.probe }

func (b *baseline) Decode(s gf2.Vec) (gf2.Vec, Stats) { return b.decode(s) }

// SetTier implements DegradableDecoder: the budget scales
// full/half/quarter and TierMinimal additionally skips the fallback
// stage.
//
//vegapunk:hotpath
func (b *baseline) SetTier(t Tier) Tier {
	t = clampTier(t)
	b.apply(tierIters(b.full, t), t != TierMinimal)
	return t
}

// relayLegs is the number of memory legs NewBP may relay a syndrome
// through after the plain one.
const relayLegs = 8

// NewBP wraps the BP decoder the product serves: Relay-BP, min-sum whose
// unsolved syndromes are relayed through up to relayLegs memory legs and
// whose first solution, unless provably of minimum weight, is weighed
// against the next four the chain finds (see package bp). maxIters caps
// each leg and names the decoder; maxIters ≤ 0 uses the paper's default
// of n. On the tier ladder the memory legs are the fallback stage:
// TierMinimal runs the plain leg alone. The paper's inaccurate BP
// baseline is NewMinSumBP.
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
	return newBaseline(name, d.Probe(),
		func(s gf2.Vec) (gf2.Vec, Stats) {
			r := d.Decode(s)
			return r.Error, Stats{BPIters: r.Iters, BPConverged: r.Converged}
		},
		d.MaxIters, func(n int, fallback bool) {
			d.SetMaxIters(n)
			if fallback {
				d.SetLegs(cfg.Legs)
			} else {
				d.SetLegs(0)
			}
		})
}

// NewBPOSD wraps BP+OSD-CS(t), the accuracy baseline. order ≤ 0 uses the
// paper's CS(7).
func NewBPOSD(model *dem.Model, bpIters, order int) Decoder {
	if order <= 0 {
		order = 7
	}
	d := osd.NewBPOSD(model.Mech, model.LLRs(),
		bp.Config{MaxIters: bpIters},
		osd.Config{Method: osd.CombinationSweep, Order: order})
	return newBaseline(fmt.Sprintf("BP+OSD-CS(%d)", order), d.Probe(),
		func(s gf2.Vec) (gf2.Vec, Stats) {
			r := d.Decode(s)
			return r.Error, Stats{BPIters: r.BPIters, BPConverged: r.BPConverged, Fallback: !r.BPConverged}
		},
		d.BPMaxIters, func(n int, fallback bool) { d.SetBPMaxIters(n); d.SetFallback(fallback) })
}

// NewBPLSD wraps BP+LSD (30 BP iterations, order 0), per the paper's
// baseline configuration.
func NewBPLSD(model *dem.Model) Decoder {
	d := lsd.New(model.Mech, model.LLRs(), bp.Config{MaxIters: 30})
	return newBaseline("BP+LSD", d.Probe(),
		func(s gf2.Vec) (gf2.Vec, Stats) {
			r := d.Decode(s)
			return r.Error, Stats{BPIters: r.BPIters, BPConverged: r.BPConverged, Fallback: !r.BPConverged, LSDMaxCluster: r.MaxClusterChecks}
		},
		d.BPMaxIters, func(n int, fallback bool) { d.SetBPMaxIters(n); d.SetFallback(fallback) })
}

// NewBPGD wraps BP guided decimation (100 BP iterations per round, up to
// n rounds), per the paper's baseline configuration.
func NewBPGD(model *dem.Model) Decoder { return NewBPGDWith(model, 0, 0) }

// NewBPGDWith wraps BPGD with explicit round/iteration budgets (the
// experiment harness scales these with its quality setting); a budget
// ≤ 0 takes bpgd's default. The tier ladder scales the round cap.
func NewBPGDWith(model *dem.Model, maxRounds, itersPerRound int) Decoder {
	d := bpgd.New(model.Mech, model.LLRs(), bpgd.Config{
		MaxRounds:     maxRounds,
		ItersPerRound: itersPerRound,
	})
	return newBaseline("BPGD", d.Probe(),
		func(s gf2.Vec) (gf2.Vec, Stats) {
			r := d.Decode(s)
			return r.Error, Stats{BPIters: r.TotalIters, BPConverged: r.Converged, BPGDRounds: r.Rounds}
		},
		d.MaxRounds, func(n int, _ bool) { d.SetMaxRounds(n) })
}

// ---- Greedy (Vegapunk without decoupling, Figure 12 ablation) ----

type greedyDecoder struct {
	d *hier.GreedyDecoder
}

// NewGreedyNoDecouple wraps the ablation baseline: Vegapunk's greedy
// search run directly on the undecoupled check matrix.
func NewGreedyNoDecouple(model *dem.Model, maxFlips int) Decoder {
	return &greedyDecoder{d: hier.NewGreedy(model.Mech, model.LLRs(), maxFlips)}
}

// NewGreedyNoDecoupleStrict is the constraint-faithful ablation variant:
// like Algorithm 1 with zero diagonal blocks, a syndrome that cannot be
// fully explained within the flip budget is a failed decode (zero
// correction returned).
func NewGreedyNoDecoupleStrict(model *dem.Model, maxFlips int) Decoder {
	g := hier.NewGreedy(model.Mech, model.LLRs(), maxFlips)
	g.Strict = true
	return &greedyDecoder{d: g}
}

func (g *greedyDecoder) Name() string { return "Vegapunk-NoDecouple" }

func (g *greedyDecoder) Decode(s gf2.Vec) (gf2.Vec, Stats) {
	return g.d.Decode(s), Stats{}
}
