// Package bpgd implements BP guided decimation (Yao et al., ISIT 2024):
// when BP stalls, the most confidently decided variable is frozen
// ("decimated") to its hard value and BP reruns on the reduced problem,
// breaking the degenerate symmetry that traps plain BP.
package bpgd

import (
	"math"
	"slices"

	"vegapunk/internal/bp"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// Config parameterizes BPGD.
type Config struct {
	// MaxRounds caps the number of decimation rounds (the paper uses n).
	MaxRounds int
	// ItersPerRound is the BP iteration budget per round (paper: 100).
	ItersPerRound int
}

// Decoder is a BPGD decoder bound to one check matrix. All working
// storage — including the inner BP decoder, whose prior slice is
// mutated in place as variables are decimated — is owned by the decoder
// and reused across decodes. Not safe for concurrent use.
type Decoder struct {
	cfg   Config
	h     *gf2.CSC
	prior []float64

	// Decode scratch, reused across calls.
	inner  *bp.Decoder // reads work as its prior on every Decode
	work   []float64   // priors with decimation overrides
	frozen []bool
	e      gf2.Vec // last-resort hard decision (owned until next Decode)
	syn    gf2.Vec
}

// New builds a BPGD decoder.
func New(h *gf2.CSC, priorLLR []float64, cfg Config) *Decoder {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = h.Cols()
	}
	if cfg.ItersPerRound <= 0 {
		cfg.ItersPerRound = 100
	}
	// bp.New builds its zero-syndrome exit from the priors it is handed,
	// so hand it the ones round 1 runs on: where the exit is on, round 1
	// solves that syndrome and no decimated round sees it.
	work := slices.Clone(priorLLR)
	return &Decoder{
		cfg:    cfg,
		h:      h,
		prior:  priorLLR,
		inner:  bp.New(h, work, bp.Config{MaxIters: cfg.ItersPerRound}),
		work:   work,
		frozen: make([]bool, h.Cols()),
		e:      gf2.NewVec(h.Cols()),
		syn:    gf2.NewVec(h.Rows()),
	}
}

// Result reports a BPGD decode.
type Result struct {
	// Error is owned by the decoder and valid until the next Decode call.
	Error gf2.Vec
	// Converged reports whether the final hard decision satisfies the
	// syndrome.
	Converged bool
	// Rounds is the number of decimation rounds used; TotalIters the
	// summed BP iterations (for the latency model).
	Rounds, TotalIters int
}

// decimatedLLR is the magnitude used to freeze a decided variable.
const decimatedLLR = 50.0

// Probe exposes the inner BP decoder's recording handle (obs.Probed);
// round spans share it, so one activation traces the whole decode.
func (d *Decoder) Probe() *obs.Probe { return d.inner.Probe() }

// MaxRounds reports the current decimation-round cap.
func (d *Decoder) MaxRounds() int { return d.cfg.MaxRounds }

// SetMaxRounds retunes the decimation-round cap at runtime (min 1). No
// buffer is sized by it, so it is safe between Decode calls — the
// serving degradation ladder lowers it under overload.
//
//vegapunk:hotpath
func (d *Decoder) SetMaxRounds(n int) {
	if n < 1 {
		n = 1
	}
	d.cfg.MaxRounds = n
}

// Decode runs guided decimation against the syndrome.
func (d *Decoder) Decode(syndrome gf2.Vec) Result {
	copy(d.work, d.prior)
	for v := range d.frozen {
		d.frozen[v] = false
	}
	res := Result{}

	p := d.inner.Probe()
	t := p.Tick()
	for round := 1; round <= d.cfg.MaxRounds; round++ {
		res.Rounds = round
		r := d.inner.Decode(syndrome)
		res.TotalIters += r.Iters
		t = p.SpanSince(obs.StageBPGDRound, round, t)
		if r.Converged {
			res.Error = r.Error
			res.Converged = true
			return res
		}
		// Freeze the most confident undecided variable.
		best, bestMag := -1, -1.0
		for v := 0; v < d.h.Cols(); v++ {
			if d.frozen[v] {
				continue
			}
			if mag := math.Abs(r.Posterior[v]); mag > bestMag {
				best, bestMag = v, mag
			}
		}
		if best < 0 {
			// Everything frozen without convergence.
			res.Error = r.Error
			return res
		}
		d.frozen[best] = true
		if r.Posterior[best] < 0 {
			d.work[best] = -decimatedLLR
		} else {
			d.work[best] = decimatedLLR
		}
	}
	// Out of rounds: last-resort hard decision from priors.
	d.e.Zero()
	for v, p := range d.work {
		if p < 0 {
			d.e.Set(v, true)
		}
	}
	res.Error = d.e
	d.h.MulVecInto(d.syn, d.e)
	res.Converged = d.syn.Equal(syndrome)
	return res
}
