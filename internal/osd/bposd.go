package osd

import (
	"vegapunk/internal/bp"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// BPOSD chains belief propagation with OSD post-processing: the paper's
// accuracy baseline BP+OSD-CS(t). BP output is returned directly when it
// converges; otherwise its posteriors seed the OSD reliability order.
type BPOSD struct {
	bp  *bp.Decoder
	osd *Decoder
	// skipFallback returns the BP hard decision even on
	// non-convergence (degraded serving tiers drop the expensive OSD
	// stage to stay inside the deadline budget).
	skipFallback bool
}

// NewBPOSD builds the combined decoder; priorLLR supplies both the BP
// priors and the OSD objective.
func NewBPOSD(h *gf2.CSC, priorLLR []float64, bpCfg bp.Config, osdCfg Config) *BPOSD {
	return &BPOSD{
		bp:  bp.New(h, priorLLR, bpCfg),
		osd: New(h, priorLLR, osdCfg),
	}
}

// Result reports a BP+OSD decode.
type Result struct {
	// Error is owned by the decoder and valid until the next Decode call.
	Error gf2.Vec
	// BPConverged indicates OSD was skipped.
	BPConverged bool
	// BPIters is the iteration count of the BP stage (for latency models).
	BPIters int
}

// Probe exposes the BP stage's recording handle (obs.Probed); fallback
// spans share it, so one activation traces the whole chain.
func (d *BPOSD) Probe() *obs.Probe { return d.bp.Probe() }

// SetBPMaxIters retunes the BP stage's iteration cap at runtime.
//
//vegapunk:hotpath
func (d *BPOSD) SetBPMaxIters(n int) { d.bp.SetMaxIters(n) }

// BPMaxIters reports the BP stage's current iteration cap.
func (d *BPOSD) BPMaxIters() int { return d.bp.MaxIters() }

// SetFallback toggles the OSD post-processing stage. With fallback off
// a non-converged BP decode returns the BP hard decision as-is (the
// degraded-tier trade: bounded latency over accuracy).
//
//vegapunk:hotpath
func (d *BPOSD) SetFallback(on bool) { d.skipFallback = !on }

// Decode runs BP and, on non-convergence, OSD.
func (d *BPOSD) Decode(syndrome gf2.Vec) Result {
	r := d.bp.Decode(syndrome)
	if r.Converged {
		return Result{Error: r.Error, BPConverged: true, BPIters: r.Iters}
	}
	if d.skipFallback {
		return Result{Error: r.Error, BPIters: r.Iters}
	}
	p := d.bp.Probe()
	t := p.Tick()
	e := d.osd.Decode(syndrome, r.Posterior)
	p.SpanSince(obs.StageFallback, 0, t)
	return Result{
		Error:   e,
		BPIters: r.Iters,
	}
}
