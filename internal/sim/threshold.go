package sim

import (
	"errors"
	"math"
)

// ThresholdFit is the result of fitting the paper's Eq. 17,
// ln p_L = k·ln p + (1-k)·ln p_t, to measured (p, p_L) pairs.
type ThresholdFit struct {
	// Pt is the accuracy threshold: the physical error rate below which
	// p_L < p.
	Pt float64
	// K is the fitted slope (suppression exponent).
	K float64
	// PtErr is the propagated 1σ uncertainty of Pt (the error bars of
	// Figure 11a).
	PtErr float64
	// Points is the number of usable (nonzero) samples.
	Points int
}

// FitThreshold fits Eq. 17 by least squares in log-log space. Samples
// with p_L = 0 (no observed failures) are skipped. At least two usable
// points are required; a slope of exactly 1 makes p_t undefined.
func FitThreshold(ps, pLs []float64) (ThresholdFit, error) {
	if len(ps) != len(pLs) {
		return ThresholdFit{}, errors.New("sim: mismatched sample lengths")
	}
	var xs, ys []float64
	for i := range ps {
		if ps[i] <= 0 || pLs[i] <= 0 || pLs[i] >= 1 {
			continue
		}
		xs = append(xs, math.Log(ps[i]))
		ys = append(ys, math.Log(pLs[i]))
	}
	n := float64(len(xs))
	if len(xs) < 2 {
		return ThresholdFit{}, errors.New("sim: need at least two nonzero samples to fit a threshold")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	if det == 0 {
		return ThresholdFit{}, errors.New("sim: degenerate sample placement")
	}
	k := (n*sxy - sx*sy) / det
	b := (sy*sxx - sx*sxy) / det
	if math.Abs(k-1) < 1e-9 {
		return ThresholdFit{}, errors.New("sim: slope 1 leaves the threshold undefined")
	}
	lnPt := b / (1 - k)
	fit := ThresholdFit{Pt: math.Exp(lnPt), K: k, Points: len(xs)}

	// Uncertainty: residual variance propagated through k and b.
	if len(xs) > 2 {
		var ss float64
		for i := range xs {
			r := ys[i] - (k*xs[i] + b)
			ss += r * r
		}
		s2 := ss / (n - 2)
		varK := n * s2 / det
		varB := sxx * s2 / det
		covKB := -sx * s2 / det
		// lnPt = b/(1-k): ∂/∂b = 1/(1-k), ∂/∂k = b/(1-k)².
		db := 1 / (1 - k)
		dk := b / ((1 - k) * (1 - k))
		varLnPt := db*db*varB + dk*dk*varK + 2*db*dk*covKB
		if varLnPt > 0 {
			fit.PtErr = fit.Pt * math.Sqrt(varLnPt)
		}
	}
	return fit, nil
}
