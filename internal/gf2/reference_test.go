package gf2

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// References for the word-wise kernels: the bit-at-a-time versions they
// replaced. refRowReduce is the pivot rule Solve and the OSD decoder
// each ran as their own loop, and refIndependentRows the one the
// echelon runs. Tests compare the two.

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

// echelonRows feeds an Echelon the rows of m in order and returns it
// with the rows it took.
func echelonRows(m *Dense) (e *Echelon, took []int) {
	e = new(Echelon)
	for i := 0; i < m.rows; i++ {
		if e.AddRow(m, i) {
			took = append(took, i)
		}
	}
	return e, took
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
	if gp, wp := got.RowReduce(nil, nil, cols), refRowReduce(want); !slices.Equal(gp, wp) || !got.Equal(want) {
		t.Fatalf("%dx%d: RowReduce pivots %v, reference %v (or the reduced matrices differ)", rows, cols, gp, wp)
	}
	if rank := m.Rank(); rank != len(refRowReduce(m.Clone())) {
		t.Fatalf("%dx%d: Rank %d, reference %d", rows, cols, rank, len(refRowReduce(m.Clone())))
	}
	// Visiting the columns in the order p is the left-to-right reduction
	// of the matrix whose column j is column p[j].
	got, want = m.Clone(), m.PermuteCols(p)
	gp, wp := got.RowReduce(nil, p, cols), refRowReduce(want)
	for i, c := range wp {
		wp[i] = p[c]
	}
	if !slices.Equal(gp, wp) || !got.PermuteCols(p).Equal(want) {
		t.Fatalf("%dx%d: ordered RowReduce pivots %v, reference %v (or the reduced matrices differ)", rows, cols, gp, wp)
	}
	checkSolve(t, rng, m)
	if _, g := echelonRows(m); !slices.Equal(g, refIndependentRows(m)) {
		t.Fatalf("%dx%d: echelon took rows %v, reference %v", rows, cols, g, refIndependentRows(m))
	}
}

// checkSolve compares Solve on m·x = b with the reference reduction of
// [m | b]: the system is inconsistent when the reference pivots on b,
// and otherwise x holds b's reduced entries at the pivot columns. Half
// the right-hand sides are m·x₀, so solvable; half are random.
func checkSolve(t *testing.T, rng *rand.Rand, m *Dense) {
	t.Helper()
	rows, cols := m.Rows(), m.Cols()
	b := NewVec(rows)
	if rng.IntN(2) == 0 {
		x0 := NewVec(cols)
		for j := 0; j < cols; j++ {
			x0.Set(j, rng.IntN(2) == 0)
		}
		b = m.MulVec(x0)
	} else {
		for i := 0; i < rows; i++ {
			b.Set(i, rng.IntN(2) == 0)
		}
	}
	aug := HStack(m, NewDense(rows, 1))
	for i := 0; i < rows; i++ {
		aug.Set(i, cols, b.Get(i))
	}
	wp := refRowReduce(aug)
	x, err := m.Solve(b)
	if len(wp) > 0 && wp[len(wp)-1] == cols {
		if err == nil {
			t.Fatalf("%dx%d: Solve answered an inconsistent system", rows, cols)
		}
		return
	}
	want := NewVec(cols)
	for i, c := range wp {
		want.Set(c, aug.At(i, cols))
	}
	if err != nil || !x.Equal(want) {
		t.Fatalf("%dx%d: Solve = %v, %v; reference %v", rows, cols, x, err, want)
	}
}

// TestKernelsMatchReference: PermuteCols, Submatrix, RowReduce in both
// visit orders, Rank, Solve and the echelon agree with their
// bit-at-a-time references on random sparse and dense matrices from
// empty to four words wide, and on the augmented [A | I] that Inverse
// and the OSD decoder reduce.
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

// checkEchelon feeds an Echelon the rows of a random matrix, columns 1
// to 140 so rows span one to three words: it must take exactly the rows
// refIndependentRows keeps, reduce every combination of the rows it took
// to zero, and reduce a random vector to zero exactly when the reference
// finds it dependent on the matrix's rows.
func checkEchelon(t *testing.T, seed uint64, colsRaw, rowsRaw uint8) {
	rng := rand.New(rand.NewPCG(seed, 171))
	cols := 1 + int(colsRaw)%140
	m := sparseDense(rng, int(rowsRaw), cols, 1+rng.IntN(40))
	e, took := echelonRows(m)
	if want := refIndependentRows(m); !slices.Equal(took, want) || e.Dim() != len(want) {
		t.Fatalf("%dx%d: echelon took rows %v (dim %d), reference %v", m.rows, cols, took, e.Dim(), want)
	}
	isZero := func(r []uint64) bool { return !slices.ContainsFunc(r, func(w uint64) bool { return w != 0 }) }
	comb := NewVec(cols)
	for trial := 0; trial < 30; trial++ {
		for _, i := range took {
			if rng.IntN(2) == 0 {
				comb.Xor(m.Row(i))
			}
		}
		if !isZero(e.residual(comb.w)) {
			t.Fatalf("%dx%d: a combination of the rows taken is not in their span", m.rows, cols)
		}
		q := sparseDense(rng, 1, cols, 1+rng.IntN(20))
		ref := refIndependentRows(VStack(m, q))
		if in, refIn := isZero(e.residual(q.row(0))), len(ref) == 0 || ref[len(ref)-1] != m.rows; in != refIn {
			t.Fatalf("%dx%d: random vector in span %v, reference %v", m.rows, cols, in, refIn)
		}
	}
}

// TestEchelonMatchesReference: the echelon with precomputed lead words
// and masks takes the same rows as the bit-at-a-time reference.
func TestEchelonMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(172, 173))
	for i := 0; i < 300; i++ {
		checkEchelon(t, rng.Uint64(), uint8(rng.IntN(256)), uint8(rng.IntN(256)))
	}
}

func FuzzEchelon(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(30))    // 10 columns
	f.Add(uint64(2), uint8(63), uint8(200))  // 64: one full word
	f.Add(uint64(3), uint8(64), uint8(255))  // 65: a second word
	f.Add(uint64(4), uint8(0), uint8(5))     // 1 column
	f.Add(uint64(5), uint8(139), uint8(255)) // 140: three words
	f.Fuzz(checkEchelon)
}
