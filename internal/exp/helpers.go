package exp

import (
	"fmt"
	"math"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/dem"
	"vegapunk/internal/hier"
	"vegapunk/internal/sim"
)

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// rounds caps the memory-experiment depth by quality.
func (c Config) rounds(d int) int {
	cap := 3
	switch c.Quality {
	case Normal:
		cap = 8
	case Full:
		cap = 1 << 30
	}
	if d > cap {
		return cap
	}
	if d < 1 {
		return 1
	}
	return d
}

// DecoderNames used across experiments.
const (
	DecBP       = "BP"
	DecBPCapped = "BP(1us)"
	DecBPOSD    = "BP+OSD-CS(7)"
	DecVegapunk = "Vegapunk"
	DecBPLSD    = "BP+LSD"
	DecBPGD     = "BPGD"
)

// factory builds a worker-local decoder by name for the benchmark's
// model at one sweep point.
func (w *Workspace) factory(cfg Config, b Benchmark, model *dem.Model, name string) (core.Factory, error) {
	switch name {
	case DecBP:
		iters := cfg.bpIterCap(model.NumMech())
		return func() core.Decoder { return core.NewMinSumBP(model, iters) }, nil
	case DecBPCapped:
		// The 1 µs real-time budget allows ~125 iterations at 2
		// cycles/iteration and 250 MHz (paper §3).
		return func() core.Decoder { return core.NewMinSumBP(model, 125) }, nil
	case DecBPOSD:
		iters := cfg.bpIterCap(model.NumMech())
		return func() core.Decoder { return core.NewBPOSD(model, iters, 7) }, nil
	case DecVegapunk:
		dcp, err := w.Decoupling(b)
		if err != nil {
			return nil, err
		}
		return func() core.Decoder { return core.NewVegapunkFrom(model, dcp, hier.Config{}) }, nil
	case DecBPLSD:
		return func() core.Decoder { return core.NewBPLSD(model) }, nil
	case DecBPGD:
		rounds, iters := cfg.bpgdBudget(model.NumMech())
		return func() core.Decoder { return newBPGD(model, rounds, iters) }, nil
	}
	return nil, fmt.Errorf("exp: unknown decoder %q", name)
}

// runLER executes a memory experiment for (benchmark, decoder, p).
func (w *Workspace) runLER(cfg Config, b Benchmark, name string, p float64, baseShots int) (sim.LERResult, error) {
	model, err := w.Model(b, p)
	if err != nil {
		return sim.LERResult{}, err
	}
	f, err := w.factory(cfg, b, model, name)
	if err != nil {
		return sim.LERResult{}, err
	}
	return sim.RunMemory(model, f, sim.MemoryConfig{
		Rounds:      cfg.rounds(b.Rounds),
		Shots:       cfg.shots(baseShots),
		MaxFailures: cfg.shots(baseShots) / 4,
		Workers:     cfg.Workers,
		Seed:        cfg.Seed + uint64(len(name))*7919,
		Tracer:      cfg.Tracer,
	}), nil
}

// sweep runs the paper's p sweep for one decoder and returns per-round
// LERs.
func (w *Workspace) sweep(cfg Config, b Benchmark, name string, baseShots int) ([]sim.LERResult, error) {
	out := make([]sim.LERResult, len(PaperPs))
	for i, p := range PaperPs {
		r, err := w.runLER(cfg, b, name, p, baseShots)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// threshold fits Eq. 17 over the paper's p sweep.
func (w *Workspace) threshold(cfg Config, b Benchmark, name string, baseShots int) (sim.ThresholdFit, []sim.LERResult, error) {
	rs, err := w.sweep(cfg, b, name, baseShots)
	if err != nil {
		return sim.ThresholdFit{}, nil, err
	}
	pls := make([]float64, len(rs))
	for i, r := range rs {
		pls[i] = r.PerRound
	}
	fit, err := sim.FitThreshold(PaperPs, pls)
	if err != nil {
		// Insufficient statistics at this budget: report a zero fit
		// rather than failing the whole experiment.
		return sim.ThresholdFit{}, rs, nil
	}
	return fit, rs, nil
}

// bpgdBudget bounds BPGD's decimation work by quality. The paper runs
// up to n rounds of 100 BP iterations; that is reserved for the Full
// budget (BPGD is the slowest baseline by far — exactly its role in
// Figure 14a).
func (c Config) bpgdBudget(n int) (rounds, iters int) {
	switch c.Quality {
	case Quick:
		return 30, 30
	case Normal:
		return 80, 60
	default:
		return n, 100
	}
}

// fmtFit renders a threshold fit, guarding the extrapolation: a slope
// k ≤ 1 means error correction is ineffective in this regime (the
// threshold is undefined — the paper's BP rows on large codes behave
// like this), and extreme extrapolations far outside the sweep window
// are statistical artifacts at low shot budgets.
func fmtFit(fit sim.ThresholdFit) string {
	if fit.Points < 2 {
		return "n/a"
	}
	if fit.K <= 1.02 || fit.Pt < 1e-6 || fit.Pt > 0.2 {
		return fmt.Sprintf("n/a(k=%.2f)", fit.K)
	}
	return fmtPct(fit.Pt)
}

func fmtLER(r sim.LERResult) string {
	return fmt.Sprintf("%.2e (%d/%d)", r.PerRound, r.Failures, r.Shots)
}

// fmtLatency renders a wall-clock latency column as mean ±std (n).
func fmtLatency(r sim.LatencyResult) string {
	const unit = 100 * time.Nanosecond
	return fmt.Sprintf("%v ±%v (%d)", r.Mean.Round(unit), r.Std.Round(unit), r.Shots)
}

// poolLatency merges nonempty latency summaries into one over all their
// decodes. Only Shots, Mean and Std are kept.
func poolLatency(rs []sim.LatencyResult) sim.LatencyResult {
	var n, sum, sumSq float64
	for _, r := range rs {
		k, m, s := float64(r.Shots), float64(r.Mean), float64(r.Std)
		n, sum, sumSq = n+k, sum+k*m, sumSq+k*(s*s+m*m)
	}
	mean := sum / n
	return sim.LatencyResult{
		Shots: int(n),
		Mean:  time.Duration(mean),
		Std:   time.Duration(math.Sqrt(max(sumSq/n-mean*mean, 0))),
	}
}

func fmtPct(x float64) string { return fmt.Sprintf("%.3f%%", 100*x) }
