// Package code constructs the quantum LDPC codes evaluated in the
// Vegapunk paper: CSS codes in general, IBM's Bivariate Bicycle (BB)
// family, and Hypergraph Product (HP) codes built from classical ring and
// circulant/bicycle codes.
package code

import (
	"fmt"

	"vegapunk/internal/gf2"
)

// CSS is a Calderbane-Shor-Steane quantum code defined by two parity
// check matrices HX (X-type stabilizers) and HZ (Z-type stabilizers)
// acting on N data qubits, satisfying HX·HZᵀ = 0. The decoders handle
// X errors, as the paper does (§2.3): the Z-type checks HZ detect them
// and LogicalZ gives the observables they flip.
type CSS struct {
	Name string
	// N is the number of data qubits, K the number of logical qubits,
	// D the (nominal) code distance. K is always computed from the
	// ranks; D is taken from the literature since computing it exactly
	// is NP-hard.
	N, K, D int
	HX, HZ  *gf2.Dense

	lx, lz *gf2.Dense // cached logical operator bases
}

// NewCSS builds a CSS code from its check matrices, computing K and
// validating commutation. The distance d is recorded as nominal metadata.
func NewCSS(name string, hx, hz *gf2.Dense, d int) (*CSS, error) {
	c := &CSS{Name: name, N: hx.Cols(), D: d, HX: hx, HZ: hz}
	if hz.Cols() != c.N {
		return nil, fmt.Errorf("code %s: HX has %d cols but HZ has %d", name, c.N, hz.Cols())
	}
	if !hx.Mul(hz.Transpose()).IsZero() {
		return nil, fmt.Errorf("code %s: stabilizers do not commute (HX·HZᵀ ≠ 0)", name)
	}
	c.K = c.N - hx.Rank() - hz.Rank()
	if c.K < 0 {
		return nil, fmt.Errorf("code %s: negative logical count k=%d", name, c.K)
	}
	return c, nil
}

// Params returns the [[n, k, d]] notation string.
func (c *CSS) Params() string {
	return fmt.Sprintf("[[%d,%d,%d]]", c.N, c.K, c.D)
}

// Validate re-checks the CSS commutation condition and K consistency.
func (c *CSS) Validate() error {
	if !c.HX.Mul(c.HZ.Transpose()).IsZero() {
		return fmt.Errorf("code %s: HX·HZᵀ ≠ 0", c.Name)
	}
	if k := c.N - c.HX.Rank() - c.HZ.Rank(); k != c.K {
		return fmt.Errorf("code %s: recorded k=%d but rank computation gives %d", c.Name, c.K, k)
	}
	return nil
}

// LogicalZ returns a basis of K logical-Z operators as rows of a K×N
// matrix: vectors in ker(HX) that are independent of rowspace(HZ).
// A Pauli-X data error e causes a logical fault iff LogicalZ()·e ≠ 0.
func (c *CSS) LogicalZ() *gf2.Dense {
	if c.lz == nil {
		c.lz = logicalOps(c.HX, c.HZ, c.K)
	}
	return c.lz
}

// LogicalX returns a basis of K logical-X operators (ker(HZ) modulo
// rowspace(HX)).
func (c *CSS) LogicalX() *gf2.Dense {
	if c.lx == nil {
		c.lx = logicalOps(c.HZ, c.HX, c.K)
	}
	return c.lx
}

// logicalOps returns k rows spanning ker(hKer) / rowspace(hMod): an
// echelon seeded with hMod's rows takes, in order, the rows of
// ker(hKer)'s basis that extend it, up to the k-th.
func logicalOps(hKer, hMod *gf2.Dense, k int) *gf2.Dense {
	var ech gf2.Echelon
	for i := 0; i < hMod.Rows(); i++ {
		ech.AddRow(hMod, i)
	}
	base := ech.Dim()
	kernel := hKer.NullSpace() // rows span ker(hKer); contains rowspace(hMod)
	out := gf2.NewDense(k, hKer.Cols())
	got := 0
	for i := 0; i < kernel.Rows() && got < k; i++ {
		if ech.AddRow(kernel, i) {
			out.SetRow(got, kernel.Row(i))
			got++
		}
	}
	if got != k {
		panic(fmt.Sprintf("code: expected %d logical operators, found %d (base rank %d)", k, got, base))
	}
	return out
}
