// Package bp implements syndrome-based belief propagation decoding of
// binary linear codes over a Tanner graph: the normalized min-sum
// algorithm on the flooding schedule, the rule the paper's FPGA
// baseline [42] runs.
//
// BP is both a baseline decoder in its own right (Figures 2, 3, 10) and
// the soft-information front end of BP+OSD, BP+LSD and BPGD.
package bp

import (
	"math"

	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
	"vegapunk/internal/tanner"
)

// scaleFactor is the conventional min-sum normalization α applied to
// every check message.
const scaleFactor = 0.75

// Config parameterizes a BP decoder.
type Config struct {
	// MaxIters caps the number of message-passing iterations. The paper
	// sets this to n (number of mechanisms) for the BP and BP+OSD
	// baselines, 30 for BP+LSD, and 125 for the 1 µs-capped variant.
	MaxIters int
}

// Decoder is a reusable BP decoder for one check matrix. It is not safe
// for concurrent use; create one per goroutine (Clone is cheap).
type Decoder struct {
	cfg   Config
	g     *tanner.Graph
	h     *gf2.CSC
	prior []float64 // per-variable prior LLR

	// message buffers, indexed by edge
	varToCheck, checkToVar []float64
	posterior              []float64
	hard                   gf2.Vec
	syn                    gf2.Vec // syndrome-check scratch

	// batch is the batched kernel's owned scratch (batch.go), built
	// lazily on the first DecodeBatch so serial-only users pay nothing.
	batch *batchScratch

	probe *obs.Probe // per-iteration span recording (inactive by default)
}

// New builds a decoder for the sparse check matrix h with per-variable
// prior LLRs (log((1-p)/p)).
func New(h *gf2.SparseCols, priorLLR []float64, cfg Config) *Decoder {
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = h.Cols()
	}
	g := tanner.New(h)
	return &Decoder{
		cfg:        cfg,
		g:          g,
		h:          gf2.CSCFromSparse(h),
		prior:      priorLLR,
		varToCheck: make([]float64, g.NumEdges()),
		checkToVar: make([]float64, g.NumEdges()),
		posterior:  make([]float64, g.NumVars),
		hard:       gf2.NewVec(g.NumVars),
		syn:        gf2.NewVec(g.NumChecks),
		probe:      obs.NewProbe(),
	}
}

// Clone returns an independent decoder sharing the immutable graph.
func (d *Decoder) Clone() *Decoder {
	c := *d
	c.varToCheck = make([]float64, len(d.varToCheck))
	c.checkToVar = make([]float64, len(d.checkToVar))
	c.posterior = make([]float64, len(d.posterior))
	c.hard = gf2.NewVec(d.g.NumVars)
	c.syn = gf2.NewVec(d.g.NumChecks)
	c.batch = nil // rebuilt lazily; batch scratch is per-instance
	c.probe = obs.NewProbe()
	return &c
}

// Probe exposes the decoder's span-recording handle (obs.Probed).
func (d *Decoder) Probe() *obs.Probe { return d.probe }

// MaxIters reports the current iteration cap.
func (d *Decoder) MaxIters() int { return d.cfg.MaxIters }

// SetMaxIters retunes the iteration cap at runtime (min 1). No buffer
// depends on the cap, so this is safe between Decode calls — the
// degradation ladder uses it to trade accuracy for latency under
// overload.
//
//vegapunk:hotpath
func (d *Decoder) SetMaxIters(n int) {
	if n < 1 {
		n = 1
	}
	d.cfg.MaxIters = n
}

// Result reports a BP decode.
type Result struct {
	// Error is the hard-decision error estimate (valid iff Converged).
	Error gf2.Vec
	// Posterior holds the final per-variable LLRs (soft information for
	// OSD/LSD/BPGD post-processing). Negative means "probably flipped".
	Posterior []float64
	// Converged reports whether the hard decision reproduced the
	// syndrome within MaxIters.
	Converged bool
	// Iters is the number of iterations executed (the BP-FPGA latency
	// model charges 2 cycles each).
	Iters int
}

// Decode runs BP against the syndrome. The returned slices/vectors are
// owned by the decoder and valid until the next Decode call.
//
//vegapunk:hotpath
func (d *Decoder) Decode(syndrome gf2.Vec) Result {
	g := d.g
	// Initialize variable-to-check messages with priors.
	for v := 0; v < g.NumVars; v++ {
		p := d.prior[v]
		for _, e := range g.VarEdges(v) {
			d.varToCheck[e] = p
		}
	}
	res := Result{Posterior: d.posterior}
	t := d.probe.Tick()
	for it := 1; it <= d.cfg.MaxIters; it++ {
		res.Iters = it
		d.checkUpdate(syndrome)
		d.varUpdate()
		conv := d.hardDecision(syndrome)
		t = d.probe.SpanSince(obs.StageBPIter, it, t)
		if conv {
			res.Converged = true
			break
		}
	}
	res.Error = d.hard
	return res
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

// varUpdate computes variable-to-check messages and posteriors.
func (d *Decoder) varUpdate() {
	g := d.g
	for v := 0; v < g.NumVars; v++ {
		sum := d.prior[v]
		for _, e := range g.VarEdges(v) {
			sum += d.checkToVar[e]
		}
		d.posterior[v] = sum
		for _, e := range g.VarEdges(v) {
			d.varToCheck[e] = sum - d.checkToVar[e]
		}
	}
}

// hardDecision thresholds posteriors and checks the syndrome.
func (d *Decoder) hardDecision(syndrome gf2.Vec) bool {
	d.hard.Zero()
	for v := 0; v < d.g.NumVars; v++ {
		if d.posterior[v] < 0 {
			d.hard.Set(v, true)
		}
	}
	d.h.MulVecInto(d.syn, d.hard)
	return d.syn.Equal(syndrome)
}
