package decouple

import (
	"fmt"
	"math/bits"
	"sort"
)

// bitvec is a packed row-index set: one column of D, or a combination
// of columns during elimination.
type bitvec []uint64

func (v bitvec) isZero() bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

func (v bitvec) xor(u bitvec) {
	for i, w := range u {
		v[i] ^= w
	}
}

func (v bitvec) lead() int {
	for wi, w := range v {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

func (v bitvec) weight() int {
	t := 0
	for _, w := range v {
		t += bits.OnesCount64(w)
	}
	return t
}

// echelon is an incrementally-built basis in echelon form: every vector
// is zero at the leads of the vectors added before it. The vectors are
// stored end to end, and each lead as the word that holds it and the
// mask that selects it.
type echelon struct {
	vecs    []uint64
	leadW   []int
	leadM   []uint64
	scratch bitvec
}

// residual reduces v against the basis and returns the remainder, held
// in a buffer the next residual or add call overwrites.
func (e *echelon) residual(v bitvec) bitvec {
	words := len(v)
	if len(e.scratch) != words {
		e.scratch = make(bitvec, words)
	}
	r := e.scratch
	copy(r, v)
	for i, w := range e.leadW {
		if r[w]&e.leadM[i] != 0 {
			r.xor(e.vecs[i*words : (i+1)*words])
		}
	}
	return r
}

// add inserts v if independent; reports whether it was added.
func (e *echelon) add(v bitvec) bool {
	r := e.residual(v)
	lead := r.lead()
	if lead < 0 {
		return false
	}
	e.vecs = append(e.vecs, r...)
	e.leadW = append(e.leadW, lead/64)
	e.leadM = append(e.leadM, 1<<(uint(lead)%64))
	return true
}

func (e *echelon) dim() int { return len(e.leadW) }

// directSum is the basis of W₁ ⊕ … ⊕ W_K in reduced row-echelon form:
// basis vector i is the only one with a one at its pivot row. Each
// basis vector is tagged with its coefficients over the raw vectors
// added (the columns that became subspace basis vectors), and each raw
// vector records its subspace, so which W_i holds a vector is read off
// the pivots the vector has set. Vectors and tags are stored end to end,
// words apart: there are at most m raw vectors, all independent.
type directSum struct {
	words      int
	vecs, tags []uint64
	// pivotOf[r] is the basis vector whose pivot is row r, or -1.
	pivotOf []int
	// owner[k] is the subspace raw vector k was added to.
	owner []int
	// res and coef are reduce's outputs.
	res, coef bitvec
}

func newDirectSum(m int) *directSum {
	words := wordsFor(m)
	d := &directSum{
		words:   words,
		vecs:    make([]uint64, 0, m*words),
		tags:    make([]uint64, 0, m*words),
		pivotOf: make([]int, m),
		owner:   make([]int, 0, m),
		res:     make(bitvec, words),
		coef:    make(bitvec, words),
	}
	for r := range d.pivotOf {
		d.pivotOf[r] = -1
	}
	return d
}

func (d *directSum) vec(i int) bitvec { return d.vecs[i*d.words : (i+1)*d.words] }
func (d *directSum) tag(i int) bitvec { return d.tags[i*d.words : (i+1)*d.words] }

// reduce sets res to vec minus its projection on the span and coef to
// that projection's coefficients over the raw vectors. In reduced form
// the projection is the sum of the basis vectors whose pivots vec has
// set, so only those are touched.
func (d *directSum) reduce(vec bitvec) {
	copy(d.res, vec)
	clear(d.coef)
	for wi, w := range vec {
		for ; w != 0; w &= w - 1 {
			if i := d.pivotOf[wi*64+bits.TrailingZeros64(w)]; i >= 0 {
				d.res.xor(d.vec(i))
				d.coef.xor(d.tag(i))
			}
		}
	}
}

// add makes vec a raw vector of subspace sub if it is independent of
// the whole sum; reports whether it was added.
func (d *directSum) add(vec bitvec, sub int) bool {
	d.reduce(vec)
	p := d.res.lead()
	if p < 0 {
		return false
	}
	raw := len(d.owner)
	d.owner = append(d.owner, sub)
	d.coef[raw/64] ^= 1 << (uint(raw) % 64) // res is now the sum of the raw vectors in coef
	// res is zero at every other pivot; clear its own from the others.
	pw, pm := p/64, uint64(1)<<(uint(p)%64)
	for i, n := 0, len(d.vecs)/d.words; i < n; i++ {
		if d.vec(i)[pw]&pm != 0 {
			d.vec(i).xor(d.res)
			d.tag(i).xor(d.coef)
		}
	}
	d.pivotOf[p] = len(d.vecs) / d.words
	d.vecs = append(d.vecs, d.res...)
	d.tags = append(d.tags, d.coef...)
	return true
}

// home returns the subspace that holds the nonzero vector vec, or -1,
// and whether vec lies in the sum at all. The sum is direct, so vec has
// one expansion over the raw vectors and W_i holds it iff every raw
// vector in that expansion belongs to W_i: the answer is unique.
func (d *directSum) home(vec bitvec) (sub int, spanned bool) {
	d.reduce(vec)
	if !d.res.isZero() {
		return -1, false
	}
	sub = -1
	for wi, w := range d.coef {
		for ; w != 0; w &= w - 1 {
			o := d.owner[wi*64+bits.TrailingZeros64(w)]
			if sub >= 0 && o != sub {
				return -1, true
			}
			sub = o
		}
	}
	return sub, true
}

// subspace is one summand W_i under construction.
type subspace struct {
	ech      echelon
	rawCols  []int // columns of D that are the basis vectors
	interior []int // non-basis columns contained in the span
}

// grow adds vec, carried by columns cols, to the basis: the first
// column owns the basis vector, its duplicates are interior.
func (s *subspace) grow(vec bitvec, cols []int) {
	s.ech.add(vec)
	s.rawCols = append(s.rawCols, cols[0])
	s.interior = append(s.interior, cols[1:]...)
}

// planSubspace searches for a decoupling with a *general* full-rank
// transformation, not just a block-local one: it seeks a direct-sum
// decomposition F₂^m = W₁ ⊕ … ⊕ W_K with dim(W_i) = m_D such that as
// many check-matrix columns as possible lie inside a single W_i. Taking
// T as the inverse of the stacked basis matrix maps each W_i to block
// i's coordinates: basis columns become the identity of D_i = (I | B),
// other interior columns become B, everything else lands in A. This
// realizes the paper's arbitrary-T SMT search (§4.2), which the
// row-partition strategies only approximate: here a column can be
// interior to a block even when its support is scattered across rows.
//
// Containment is asked of the sum's reduced basis (directSum.home); the
// per-subspace echelons only choose where an independent column grows,
// by residual weight, which depends on their basis form.
func planSubspace(v *searchView, K int) (*plan, error) {
	m := v.m
	if K < 2 || m%K != 0 {
		return nil, fmt.Errorf("decouple: subspace K=%d cannot tile m=%d", K, m)
	}
	mD := m / K
	var subs []*subspace
	global := newDirectSum(m)

	// place homes a distinct column: interior to a subspace that already
	// spans it, else a new basis vector of the subspace with capacity
	// whose basis reduces it the most, below weight maxRes, provided it
	// is independent of everything placed so far.
	place := func(g colGroup, maxRes int) bool {
		home, spanned := global.home(g.vec)
		if home >= 0 {
			subs[home].interior = append(subs[home].interior, g.cols...)
			return true
		}
		if spanned {
			return false // it needs several subspaces
		}
		best, bestRes := -1, maxRes
		for i, s := range subs {
			if s.ech.dim() >= mD {
				continue
			}
			if rw := s.ech.residual(g.vec).weight(); rw < bestRes {
				best, bestRes = i, rw
			}
		}
		if best >= 0 && global.add(g.vec, best) {
			subs[best].grow(g.vec, g.cols)
			return true
		}
		return false
	}
	// Distinct columns by frequency. Only a *related* subspace may grow
	// (residual lighter than the column itself); unrelated vectors open
	// new subspaces instead, keeping the planted structure of the column
	// space separated.
	var unplaced []int // indices into v.distinct
	for i, g := range v.distinct {
		if place(g, g.vec.weight()) {
			continue
		}
		if len(subs) < K && global.add(g.vec, len(subs)) {
			s := &subspace{}
			s.grow(g.vec, g.cols)
			subs = append(subs, s)
			continue
		}
		// No related home and no free slots yet: retry after all
		// subspaces have grown.
		unplaced = append(unplaced, i)
	}
	// Second chance: growth may have absorbed earlier rejects; also
	// allow unrelated growth now that the structure is settled. What
	// still depends on multiple subspaces is crossing → A.
	for _, i := range unplaced {
		place(v.distinct[i], m+1)
	}
	for len(subs) < K {
		subs = append(subs, &subspace{})
	}

	// Complete every subspace to m_D using unit columns present in D
	// (measurement errors), which stay globally independent trivially.
	assigned := make([]bool, v.n)
	for _, s := range subs {
		for _, j := range s.rawCols {
			assigned[j] = true
		}
	}
	for i, s := range subs {
		for r := 0; r < m && s.ech.dim() < mD; r++ {
			j := v.unitCol[r]
			if j < 0 || assigned[j] || !global.add(v.vecs[j], i) {
				continue
			}
			s.grow(v.vecs[j], []int{j})
			assigned[j] = true
		}
		if s.ech.dim() < mD {
			return nil, fmt.Errorf("decouple: subspace completion stuck at dim %d/%d", s.ech.dim(), mD)
		}
	}

	// The basis columns become the identities (plan.build inverts the
	// stacked basis); columns in no subspace, zero columns included, go
	// to A.
	identity := make([][]int, K)
	interior := make([][]int, K)
	placed := 0
	for i, s := range subs {
		sort.Ints(s.interior)
		identity[i], interior[i] = s.rawCols, s.interior
		for _, j := range s.interior {
			assigned[j] = true
		}
		placed += len(s.rawCols) + len(s.interior)
	}
	crossing := make([]int, 0, v.n-placed)
	for j := 0; j < v.n; j++ {
		if !assigned[j] {
			crossing = append(crossing, j)
		}
	}
	return newPlan(v, identity, interior, crossing)
}

// wordsFor mirrors gf2's packing (kept local to avoid exporting it).
func wordsFor(n int) int { return (n + 63) / 64 }
