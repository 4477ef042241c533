// Package dem builds detector error models: the bridge between a noisy
// quantum memory experiment and a syndrome decoder.
//
// A Model lists independent error mechanisms. Each mechanism fires with
// its prior probability; firing flips a set of detectors (syndrome bits)
// and a set of logical observables. The decoder sees only the per-round
// check matrix (detectors × mechanisms), the prior vector, and the
// sampled syndrome; it answers with a predicted mechanism set whose
// observable flips are compared against the truth.
//
// This mirrors the Stim detector-error-model workflow the paper uses,
// built from scratch (see DESIGN.md §1 for the substitution).
package dem

import (
	"fmt"
	"math"
	"math/rand/v2"

	"vegapunk/internal/gf2"
)

// Model is a per-round detector error model.
type Model struct {
	Name string
	// NumDet is the number of detectors (syndrome bits) per round.
	NumDet int
	// NumObs is the number of logical observables tracked.
	NumObs int
	// Mech maps mechanisms to detectors: NumDet × NumMech sparse matrix.
	Mech *gf2.CSC
	// Obs maps mechanisms to observables: NumObs × NumMech sparse matrix.
	Obs *gf2.CSC
	// Prior is the firing probability of each mechanism.
	Prior []float64
}

// NumMech returns the number of error mechanisms (columns).
func (m *Model) NumMech() int { return m.Mech.Cols() }

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if m.Mech.Rows() != m.NumDet {
		return fmt.Errorf("dem %s: Mech has %d rows, want %d", m.Name, m.Mech.Rows(), m.NumDet)
	}
	if m.Obs.Rows() != m.NumObs {
		return fmt.Errorf("dem %s: Obs has %d rows, want %d", m.Name, m.Obs.Rows(), m.NumObs)
	}
	if m.Obs.Cols() != m.Mech.Cols() {
		return fmt.Errorf("dem %s: Obs has %d cols, Mech has %d", m.Name, m.Obs.Cols(), m.Mech.Cols())
	}
	if len(m.Prior) != m.Mech.Cols() {
		return fmt.Errorf("dem %s: %d priors for %d mechanisms", m.Name, len(m.Prior), m.Mech.Cols())
	}
	for j, p := range m.Prior {
		if p <= 0 || p >= 0.5 {
			return fmt.Errorf("dem %s: prior[%d] = %v out of (0, 0.5)", m.Name, j, p)
		}
	}
	return nil
}

// CheckMatrix returns the dense NumDet × NumMech check matrix D the
// decoders solve D·e = s over.
func (m *Model) CheckMatrix() *gf2.Dense { return m.Mech.ToDense() }

// LLRs returns the per-mechanism log-likelihood ratios
// w_j = log((1-p_j)/p_j) used as minimum-weight objective coefficients.
func (m *Model) LLRs() []float64 {
	out := make([]float64, len(m.Prior))
	for j, p := range m.Prior {
		out[j] = math.Log((1 - p) / p)
	}
	return out
}

// Sample draws one round of mechanism firings.
func (m *Model) Sample(rng *rand.Rand) gf2.Vec {
	e := gf2.NewVec(m.NumMech())
	m.SampleInto(e, rng)
	return e
}

// SampleInto draws one round of mechanism firings into e (length
// NumMech), allocation-free.
func (m *Model) SampleInto(e gf2.Vec, rng *rand.Rand) {
	e.Zero()
	for j, p := range m.Prior {
		if rng.Float64() < p {
			e.Set(j, true)
		}
	}
}

// Syndrome returns the detector flips caused by a mechanism vector.
func (m *Model) Syndrome(mechs gf2.Vec) gf2.Vec { return m.Mech.MulVec(mechs) }

// SyndromeInto writes the detector flips caused by a mechanism vector
// into s (length NumDet), allocation-free.
func (m *Model) SyndromeInto(s, mechs gf2.Vec) { m.Mech.MulVecInto(s, mechs) }

// Observables returns the logical observable flips caused by a mechanism
// vector.
func (m *Model) Observables(mechs gf2.Vec) gf2.Vec { return m.Obs.MulVec(mechs) }

// ObservablesInto writes the logical observable flips caused by a
// mechanism vector into o (length NumObs), allocation-free.
func (m *Model) ObservablesInto(o, mechs gf2.Vec) { m.Obs.MulVecInto(o, mechs) }
