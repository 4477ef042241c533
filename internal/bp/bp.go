// Package bp implements syndrome-based belief propagation decoding of
// binary linear codes over a Tanner graph: the normalized min-sum
// algorithm on the flooding schedule, the rule the paper's FPGA
// baseline [42] runs.
//
// BP is both a baseline decoder in its own right (Figures 2, 3, 10) and
// the soft-information front end of BP+OSD, BP+LSD and BPGD. With
// Config.Legs > 0 the same kernel runs Relay-BP ("Improved belief
// propagation is sufficient for real-time decoding of quantum memory"):
// a syndrome the plain leg cannot solve is relayed through memory legs
// of disordered per-variable strength, and unless the first solution is
// provably of minimum weight the chain goes on to collect
// relaySolutions of them and returns the lightest.
//
// There is one kernel, scalar, with three exits: the all-zero syndrome
// is answered from the posterior New computed for it, a first solution
// at the weight floor ⌈|s|/c_max⌉ is returned at once, and everything
// else runs the ensemble.
package bp

import (
	"math"
	"math/rand/v2"
	"slices"

	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
	"vegapunk/internal/tanner"
)

// scaleFactor is the conventional min-sum normalization α applied to
// every check message.
const scaleFactor = 0.75

// Relay-BP parameters. A memory leg biases variable j by
// Λ_j(t) = (1−γ_j)·Λ_j(0) + γ_j·M_j(t−1), with γ_j drawn once per (leg,
// variable) uniformly from [gammaLo, gammaHi) — the paper's disordered
// interval, negative strengths included — out of a PCG stream seeded
// with gammaSeed, so every decoder of one shape carries the same table.
const (
	gammaLo, gammaHi = -0.24, 0.66
	gammaSeed        = 0x52656c6179 // "Relay"
	// stallLag is the stall rule: a leg is left at the first iteration
	// past stallLag whose hard decision equals the one stallLag
	// iterations earlier (prev2) without satisfying the syndrome.
	// Lag 2 catches fixed points and 2-cycles, which is where every leg
	// that does not converge ends up within a few iterations.
	stallLag = 2
	// relaySolutions is the size of the relay ensemble: the chain stops
	// at this many converged legs and the lightest solution wins.
	relaySolutions = 5
)

// Config parameterizes a BP decoder.
type Config struct {
	// MaxIters caps the number of message-passing iterations. The paper
	// sets this to n (number of mechanisms) for the BP and BP+OSD
	// baselines, 30 for BP+LSD, and 125 for the 1 µs-capped variant.
	MaxIters int
	// Legs is the number of Relay-BP memory legs that may follow the
	// plain leg; 0 is plain min-sum. With Legs > 0 MaxIters caps each
	// leg, a leg that stalls (see stallLag) is left at once, and each
	// leg starts from the messages and marginals the previous one left,
	// converged or not. The first solution is returned if its Hamming
	// weight is at the floor ⌈|s|/c_max⌉ no solution can be below;
	// otherwise the chain runs until relaySolutions legs have converged
	// or the legs run out, and the solution of least prior weight wins.
	Legs int
}

// Decoder is a reusable BP decoder for one check matrix. It is not safe
// for concurrent use; create one per goroutine with New.
type Decoder struct {
	cfg    Config
	g      *tanner.Graph
	h      *gf2.CSC
	maxCol int       // h's largest column weight, the certificate's c_max
	prior  []float64 // per-variable prior LLR

	// message buffers, indexed by edge
	varToCheck, checkToVar []float64
	posterior              []float64
	hard                   gf2.Vec
	syn                    gf2.Vec // syndrome-check scratch

	// zeroPost is the posterior iteration 1 leaves on the all-zero
	// syndrome, which Decode answers from it; nil when some prior is
	// negative and that iteration need not return the zero vector.
	// Immutable after New.
	zeroPost []float64

	// Relay-BP: gamma holds the memory strengths, one row of NumVars per
	// constructed leg, immutable after New; prev1 and prev2 are the hard
	// decisions of the two iterations before hard's, rotated with it, for
	// the stall rule; best holds the ensemble's lightest solution so far,
	// out of that rotation.
	gamma        [][]float64
	prev1, prev2 gf2.Vec
	best         gf2.Vec

	probe *obs.Probe // per-iteration span recording (inactive by default)
}

// New builds a decoder for the sparse check matrix h with per-variable
// prior LLRs (log((1-p)/p)). priorLLR is kept, not copied, and read by
// every Decode. The zero-syndrome exit is built from its values at this
// point, so a caller that rewrites them between decodes (BPGD's
// decimation) may decode the all-zero syndrome only on the values New
// saw.
func New(h *gf2.CSC, priorLLR []float64, cfg Config) *Decoder {
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = h.Cols()
	}
	g := tanner.New(h)
	var gamma [][]float64
	rng := rand.New(rand.NewPCG(gammaSeed, 0))
	for leg := 0; leg < cfg.Legs; leg++ {
		row := make([]float64, g.NumVars)
		for v := range row {
			row[v] = gammaLo + (gammaHi-gammaLo)*rng.Float64()
		}
		gamma = append(gamma, row)
	}
	d := &Decoder{
		cfg:        cfg,
		g:          g,
		h:          h,
		maxCol:     h.MaxColWeight(),
		prior:      priorLLR,
		varToCheck: make([]float64, g.NumEdges()),
		checkToVar: make([]float64, g.NumEdges()),
		posterior:  make([]float64, g.NumVars),
		hard:       gf2.NewVec(g.NumVars),
		syn:        gf2.NewVec(g.NumChecks),
		gamma:      gamma,
		prev1:      gf2.NewVec(g.NumVars),
		prev2:      gf2.NewVec(g.NumVars),
		best:       gf2.NewVec(g.NumVars),
		probe:      obs.NewProbe(),
	}
	if !slices.ContainsFunc(priorLLR, func(p float64) bool { return p < 0 }) {
		// Non-negative priors and no flipped check leave every message of
		// iteration 1 non-negative: the leg returns the zero vector there.
		d.initMessages()
		d.runLeg(gf2.NewVec(g.NumChecks), nil, new(int))
		d.zeroPost = slices.Clone(d.posterior)
	}
	return d
}

// Probe exposes the decoder's span-recording handle (obs.Probed).
func (d *Decoder) Probe() *obs.Probe { return d.probe }

// Result reports a BP decode.
type Result struct {
	// Error is the correction: under relay the lightest solution found,
	// otherwise the hard decision of the last iteration run. It
	// reproduces the syndrome iff Converged; otherwise it is the best
	// guess the soft output supports, which every caller still uses.
	Error gf2.Vec
	// Posterior holds the final per-variable LLRs (soft information for
	// OSD/LSD/BPGD post-processing), read-only. Negative means "probably
	// flipped". Under relay they are the last leg's, which need not be
	// the leg Error came from; nothing reads them there.
	Posterior []float64
	// Converged reports whether some hard decision reproduced the
	// syndrome within MaxIters (of some leg).
	Converged bool
	// Iters is the number of iterations executed, summed over legs (the
	// BP-FPGA latency model charges 2 cycles each).
	Iters int
}

// Decode runs BP against the syndrome. The returned slices/vectors are
// owned by the decoder and valid until the next Decode call.
func (d *Decoder) Decode(syndrome gf2.Vec) Result {
	if d.zeroPost != nil && syndrome.IsZero() {
		// Zero exit: what iteration 1 returns, computed once in New.
		d.probe.SpanSince(obs.StageBPIter, 1, d.probe.Tick())
		d.hard.Zero()
		return Result{Error: d.hard, Posterior: d.zeroPost, Converged: true, Iters: 1}
	}
	d.initMessages()
	res := Result{Posterior: d.posterior}
	var gamma []float64 // nil: the plain leg
	found, bestW := 0, 0.0
	for leg := 0; ; leg++ {
		if d.runLeg(syndrome, gamma, &res.Iters) {
			res.Converged = true
			// Certificate exit: a column flips at most maxCol checks, so no
			// solution weighs less than ⌈|s|/maxCol⌉, and a first solution
			// there is a minimum-weight one. Plain min-sum stops at its
			// first solution whatever its weight.
			if found == 0 && (d.cfg.Legs == 0 || (d.hard.Weight()-1)*d.maxCol < syndrome.Weight()) {
				res.Error = d.hard
				return res
			}
			if w := d.hard.WeightSum(d.prior); found == 0 || w < bestW {
				d.best.CopyFrom(d.hard)
				bestW = w
			}
			found++
		}
		if leg == d.cfg.Legs || found == relaySolutions {
			break
		}
		gamma = d.gamma[leg]
	}
	res.Error = d.hard
	if found > 0 {
		res.Error = d.best
	}
	return res
}

// initMessages sets every variable-to-check message to its variable's
// prior, the state a decode starts from.
func (d *Decoder) initMessages() {
	for e, v := range d.g.VarOf {
		d.varToCheck[e] = d.prior[v]
	}
}

// runLeg runs one leg of at most MaxIters iterations from the messages
// and marginals in place, adds the iterations it ran to *iters and
// reports whether the hard decision reproduced the syndrome. gamma is
// the leg's row of memory strengths, nil for the plain leg. Under relay
// (Legs > 0) the leg is also left, unconverged, when it stalls.
func (d *Decoder) runLeg(syndrome gf2.Vec, gamma []float64, iters *int) bool {
	relay := d.cfg.Legs > 0
	t := d.probe.Tick()
	for it := 1; it <= d.cfg.MaxIters; it++ {
		*iters++
		d.checkUpdate(syndrome)
		d.varUpdate(gamma)
		if relay {
			d.hard, d.prev1, d.prev2 = d.prev2, d.hard, d.prev1
		}
		conv := d.hardDecision(syndrome)
		t = d.probe.SpanSince(obs.StageBPIter, *iters, t)
		if conv {
			return true
		}
		if relay && it > stallLag && d.hard.Equal(d.prev2) {
			return false
		}
	}
	return false
}

// checkUpdate computes check-to-variable messages by the normalized
// min-sum rule.
func (d *Decoder) checkUpdate(syndrome gf2.Vec) {
	g := d.g
	for c := 0; c < g.NumChecks; c++ {
		edges := g.CheckEdges(c)
		// Track the two smallest magnitudes and the total sign.
		min1, min2 := math.Inf(1), math.Inf(1)
		min1Edge := int32(-1)
		negCount := 0
		for _, e := range edges {
			m := d.varToCheck[e]
			a := math.Abs(m)
			if m < 0 {
				negCount++
			}
			if a < min1 {
				min2 = min1
				min1 = a
				min1Edge = e
			} else if a < min2 {
				min2 = a
			}
		}
		baseSign := 1.0
		if syndrome.Get(c) {
			baseSign = -1.0
		}
		if negCount%2 == 1 {
			baseSign = -baseSign
		}
		for _, e := range edges {
			mag := min1
			if e == min1Edge {
				mag = min2
			}
			s := baseSign
			if d.varToCheck[e] < 0 {
				s = -s // remove own sign from the product
			}
			d.checkToVar[e] = scaleFactor * s * mag
		}
	}
}

// varUpdate computes variable-to-check messages and posteriors. On a
// memory leg (gamma non-nil) the variable's bias is its prior mixed
// with its previous marginal, still in posterior at this point. A
// variable's edges are consecutive ids (tanner.New), so its messages are
// one span of each buffer.
func (d *Decoder) varUpdate(gamma []float64) {
	g := d.g
	lo := 0
	for v := 0; v < g.NumVars; v++ {
		hi := lo + g.VarDegree(v)
		c2v, v2c := d.checkToVar[lo:hi], d.varToCheck[lo:hi]
		lo = hi
		sum := d.prior[v]
		if gamma != nil {
			sum = (1-gamma[v])*sum + gamma[v]*d.posterior[v]
		}
		for _, m := range c2v {
			sum += m
		}
		d.posterior[v] = sum
		for i, m := range c2v {
			v2c[i] = sum - m
		}
	}
}

// hardDecision thresholds posteriors, a 64-bit word of hard at a time,
// and checks the syndrome.
func (d *Decoder) hardDecision(syndrome gf2.Vec) bool {
	post := d.posterior
	for i := 0; i*64 < len(post); i++ {
		var w uint64
		for b, p := range post[i*64 : min(i*64+64, len(post))] {
			if p < 0 {
				w |= 1 << uint(b)
			}
		}
		d.hard.SetWord(i, w)
	}
	d.h.MulVecInto(d.syn, d.hard)
	return d.syn.Equal(syndrome)
}
