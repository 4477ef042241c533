package gf2

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// References for the word-wise kernels on the decoupling set-up path:
// the bit-at-a-time versions they replaced. Tests compare the two.

func refPermuteCols(m *Dense, p Perm) *Dense {
	out := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for jj, src := range p {
			if m.At(i, src) {
				out.Set(i, jj, true)
			}
		}
	}
	return out
}

func refSubmatrix(m *Dense, r0, r1, c0, c1 int) *Dense {
	out := NewDense(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			if m.At(i, j) {
				out.Set(i-r0, j-c0, true)
			}
		}
	}
	return out
}

func refRowReduce(m *Dense) (pivots []int) {
	r := 0
	for c := 0; c < m.cols && r < m.rows; c++ {
		p := -1
		for i := r; i < m.rows; i++ {
			if m.At(i, c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.SwapRows(r, p)
		for i := 0; i < m.rows; i++ {
			if i != r && m.At(i, c) {
				m.RowXor(i, r)
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots
}

func refIndependentRows(m *Dense) []int {
	var basis [][]uint64
	var pivcols, out []int
	for i := 0; i < m.rows; i++ {
		r := make([]uint64, m.stride)
		copy(r, m.row(i))
		for bi, b := range basis {
			c := pivcols[bi]
			if r[c/wordBits]>>(uint(c)%wordBits)&1 == 1 {
				for k := range r {
					r[k] ^= b[k]
				}
			}
		}
		lead := -1
		for wi, w := range r {
			if w != 0 {
				for b := 0; b < wordBits; b++ {
					if w>>uint(b)&1 == 1 {
						lead = wi*wordBits + b
						break
					}
				}
				break
			}
		}
		if lead >= 0 {
			basis = append(basis, r)
			pivcols = append(pivcols, lead)
			out = append(out, i)
		}
	}
	return out
}

// sparseDense is a rows × cols matrix with each entry set with
// probability 1/density, and with some rows repeated or summed so
// elimination meets dependent rows.
func sparseDense(rng *rand.Rand, rows, cols, density int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		switch {
		case i > 1 && rng.IntN(6) == 0:
			copy(m.row(i), m.row(rng.IntN(i)))
			m.RowXor(i, rng.IntN(i))
		case i > 0 && rng.IntN(8) == 0:
			copy(m.row(i), m.row(rng.IntN(i)))
		default:
			for j := 0; j < cols; j++ {
				if rng.IntN(density) == 0 {
					m.Set(i, j, true)
				}
			}
		}
	}
	return m
}

// checkKernels compares every word-wise kernel with its reference on
// one matrix.
func checkKernels(t *testing.T, rng *rand.Rand, m *Dense) {
	t.Helper()
	rows, cols := m.Rows(), m.Cols()
	p := Perm(rng.Perm(cols))
	if got, want := m.PermuteCols(p), refPermuteCols(m, p); !got.Equal(want) {
		t.Fatalf("%dx%d: PermuteCols differs from the reference", rows, cols)
	}
	r0, c0 := rng.IntN(rows+1), rng.IntN(cols+1)
	r1, c1 := r0+rng.IntN(rows-r0+1), c0+rng.IntN(cols-c0+1)
	if got, want := m.Submatrix(r0, r1, c0, c1), refSubmatrix(m, r0, r1, c0, c1); !got.Equal(want) {
		t.Fatalf("%dx%d: Submatrix [%d,%d)×[%d,%d) differs from the reference", rows, cols, r0, r1, c0, c1)
	}
	got, want := m.Clone(), m.Clone()
	if gp, wp := got.RowReduce(), refRowReduce(want); !slices.Equal(gp, wp) || !got.Equal(want) {
		t.Fatalf("%dx%d: RowReduce pivots %v, reference %v (or the reduced matrices differ)", rows, cols, gp, wp)
	}
	if rank := m.Rank(); rank != len(refRowReduce(m.Clone())) {
		t.Fatalf("%dx%d: Rank %d, reference %d", rows, cols, rank, len(refRowReduce(m.Clone())))
	}
	if g, w := m.IndependentRows(), refIndependentRows(m); !slices.Equal(g, w) {
		t.Fatalf("%dx%d: IndependentRows %v, reference %v", rows, cols, g, w)
	}
}

// TestKernelsMatchReference: PermuteCols, Submatrix, RowReduce, Rank and
// IndependentRows agree with their bit-at-a-time references on random
// sparse and dense matrices from empty to four words wide, and on the
// augmented [A | I] that Inverse reduces.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(181, 182))
	for _, shape := range [][2]int{{0, 0}, {1, 1}, {0, 5}, {5, 0}, {1, 64}, {64, 1}, {3, 63}, {3, 65}, {70, 128}, {130, 200}} {
		checkKernels(t, rng, sparseDense(rng, shape[0], shape[1], 2))
	}
	for trial := 0; trial < 300; trial++ {
		rows, cols := rng.IntN(140), rng.IntN(260)
		checkKernels(t, rng, sparseDense(rng, rows, cols, 1+rng.IntN(40)))
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(150)
		a := HStack(sparseDense(rng, n, n, 1+rng.IntN(10)), Eye(n))
		checkKernels(t, rng, a)
	}
}

func FuzzKernelsMatchReference(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(70), uint8(3))
	f.Add(uint64(2), uint8(64), uint8(64), uint8(1))
	f.Add(uint64(3), uint8(0), uint8(200), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols, density uint8) {
		rng := rand.New(rand.NewPCG(seed, 183))
		checkKernels(t, rng, sparseDense(rng, int(rows), int(cols), 1+int(density)%40))
	})
}
