package exp

import (
	"math"
	"slices"

	"vegapunk/internal/bp"
	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// bpgdDecoder is BP guided decimation (Yao et al., ISIT 2024), the
// Figure 14 baseline: when BP stalls, the most confidently decided
// variable is frozen ("decimated") to its hard value and BP reruns on
// the reduced problem, breaking the degenerate symmetry that traps plain
// BP. All working storage — including the inner BP decoder, whose prior
// slice is mutated in place as variables are decimated — is owned by the
// decoder and reused across decodes. Not safe for concurrent use.
type bpgdDecoder struct {
	maxRounds int
	h         *gf2.CSC
	prior     []float64

	// Decode scratch, reused across calls.
	inner  *bp.Decoder // reads work as its prior on every Decode
	work   []float64   // priors with decimation overrides
	frozen []bool
	e      gf2.Vec // last-resort hard decision (owned until next Decode)
	syn    gf2.Vec
}

// newBPGD builds a BPGD decoder of up to maxRounds decimation rounds of
// itersPerRound BP iterations each (bpgdBudget scales both by quality).
func newBPGD(model *dem.Model, maxRounds, itersPerRound int) *bpgdDecoder {
	h, prior := model.Mech, model.LLRs()
	// bp.New builds its zero-syndrome exit from the priors it is handed,
	// so hand it the ones round 1 runs on: where the exit is on, round 1
	// solves that syndrome and no decimated round sees it.
	work := slices.Clone(prior)
	return &bpgdDecoder{
		maxRounds: maxRounds,
		h:         h,
		prior:     prior,
		inner:     bp.New(h, work, bp.Config{MaxIters: itersPerRound}),
		work:      work,
		frozen:    make([]bool, h.Cols()),
		e:         gf2.NewVec(h.Cols()),
		syn:       gf2.NewVec(h.Rows()),
	}
}

// bpgdResult reports a BPGD decode: the correction (owned by the
// decoder until the next Decode), whether it satisfies the syndrome, the
// decimation rounds used and the summed BP iterations.
type bpgdResult struct {
	e             gf2.Vec
	converged     bool
	rounds, iters int
}

// decimatedLLR is the magnitude used to freeze a decided variable.
const decimatedLLR = 50.0

// Name implements core.Decoder.
func (d *bpgdDecoder) Name() string { return DecBPGD }

// Probe exposes the inner BP decoder's recording handle (obs.Probed);
// round spans share it, so one activation traces the whole decode.
func (d *bpgdDecoder) Probe() *obs.Probe { return d.inner.Probe() }

// Decode implements core.Decoder.
func (d *bpgdDecoder) Decode(s gf2.Vec) (gf2.Vec, core.Stats) {
	r := d.decode(s)
	return r.e, core.Stats{BPIters: r.iters, BPConverged: r.converged}
}

// decode runs guided decimation against the syndrome.
func (d *bpgdDecoder) decode(syndrome gf2.Vec) bpgdResult {
	copy(d.work, d.prior)
	clear(d.frozen)
	res := bpgdResult{}

	p := d.inner.Probe()
	t := p.Tick()
	for round := 1; round <= d.maxRounds; round++ {
		res.rounds = round
		r := d.inner.Decode(syndrome)
		res.iters += r.Iters
		t = p.SpanSince(obs.StageBPGDRound, round, t)
		if r.Converged {
			res.e = r.Error
			res.converged = true
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
			res.e = r.Error
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
	res.e = d.e
	d.h.MulVecInto(d.syn, d.e)
	res.converged = d.syn.Equal(syndrome)
	return res
}
