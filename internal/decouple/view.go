package decouple

import (
	"math/bits"
	"math/rand/v2"
	"slices"

	"vegapunk/internal/gf2"
)

// searchView is everything the search reads about D, extracted once per
// Decouple call and shared read-only by every strategy for every K (and,
// since the K candidates are searched concurrently, by every goroutine):
// nothing below is written after newSearchView returns.
type searchView struct {
	D    *gf2.Dense
	m, n int
	// cols holds the column supports (sorted rows; len = column weight).
	cols *gf2.CSC
	// colRows is Dᵀ: column j of D packed as row j, for gf2.Echelon.
	colRows *gf2.Dense
	// units[r] counts the weight-1 columns on row r, interior to every
	// partition; unitTotal is their sum.
	units     []int
	unitTotal int
	// repr lists each distinct column of weight ≥ 2 once, as the index of
	// its first appearance in D, in order of appearance; mult[i] is the
	// number of columns of D equal to column repr[i].
	repr, mult []int32
	// nbr is the neighbour table: nbr[nbrAt[r]:nbrAt[r+1]] lists every
	// distinct column of weight ≥ 2 on row r as (multiplicity, number of
	// other rows, the other rows…). Unit columns are interior to any
	// partition and never appear. The affinity of rows r and s, the
	// number of columns they share, is the multiplicity summed over r's
	// entries that list s.
	nbr   []int32
	nbrAt []int32
	// pairs is the neighbour table's pair index: pairs[pairAt[r·m+s]:
	// pairAt[r·m+s+1]] holds the offset in nbr of each entry on row r
	// whose other rows include s.
	pairs  []int32
	pairAt []int32
	// mass[r] is row r's affinity summed over every row.
	mass []int
	// trials is the refinement's swap-trial sequence for the call's seed
	// (newTrials).
	trials []int32
	// boundTop[k] is the sum over rows of each row's k largest pair
	// shares, in units of 1/boundOne (coverageBound).
	boundTop []int64
}

func newSearchView(D *gf2.Dense, seed uint64) *searchView {
	m, n := D.Rows(), D.Cols()
	v := &searchView{
		D: D, m: m, n: n,
		cols:    gf2.CSCFromDense(D),
		colRows: D.Transpose(),
		units:   make([]int, m),
	}
	// Equal columns of weight ≥ 2 meet in an open-addressed table keyed
	// by a hash of their support; slot holds 1 + their index in repr.
	slots := make([]int32, 1<<bits.Len(uint(2*n)))
	mask := uint64(len(slots) - 1)
	for j := 0; j < n; j++ {
		sup := v.cols.ColSpan(j)
		if len(sup) == 1 {
			v.units[sup[0]]++
			v.unitTotal++
		}
		if len(sup) < 2 {
			continue
		}
		h := supportHash(sup)
		for ; ; h++ {
			s := &slots[h&mask]
			if *s == 0 {
				*s = int32(len(v.repr)) + 1
				v.repr = append(v.repr, int32(j))
				v.mult = append(v.mult, 1)
				break
			}
			if i := *s - 1; slices.Equal(v.cols.ColSpan(int(v.repr[i])), sup) {
				v.mult[i]++
				break
			}
		}
	}
	v.buildNeighbours()
	v.mass = make([]int, m)
	for r := range v.mass {
		var mult int
		var others []int32
		for span := v.neighbours(r); len(span) > 0; {
			mult, others, span = nextNeighbour(span)
			v.mass[r] += mult * len(others)
		}
	}
	v.trials = newTrials(m, refinePasses, seed)
	v.buildBound()
	return v
}

// supportHash mixes a column support into 64 bits (FNV-1a over the row
// indices, then a final avalanche so the low bits index well).
func supportHash(sup []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, r := range sup {
		h = (h ^ uint64(uint32(r))) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return h ^ h>>33
}

// trialsPerRow is the number of swap partners drawn for each row per
// refinement pass.
const trialsPerRow = 8

// newTrials draws the refinement's swap trials: per pass, a random order
// of the m rows, each row followed by trialsPerRow random partners, laid
// out as blocks (row, partner…). The draws do not depend on which swaps
// are accepted, so one sequence serves every partition and every K.
func newTrials(m, passes int, seed uint64) []int32 {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	out := make([]int32, 0, passes*m*(1+trialsPerRow))
	for pass := 0; pass < passes; pass++ {
		for _, r := range rng.Perm(m) {
			out = append(out, int32(r))
			for trial := 0; trial < trialsPerRow; trial++ {
				out = append(out, int32(rng.IntN(m)))
			}
		}
	}
	return out
}

// neighbours returns row r's span of the neighbour table.
func (v *searchView) neighbours(r int) []int32 { return v.nbr[v.nbrAt[r]:v.nbrAt[r+1]] }

// shared returns the offsets in nbr of row r's entries for the columns
// that also hold row s.
func (v *searchView) shared(r, s int) []int32 {
	return v.pairs[v.pairAt[r*v.m+s]:v.pairAt[r*v.m+s+1]]
}

// nextNeighbour splits the first entry off a neighbour span.
func nextNeighbour(span []int32) (mult int, others, rest []int32) {
	end := 2 + span[1]
	return int(span[0]), span[2:end], span[end:]
}

// buildNeighbours fills nbr and nbrAt from the distinct columns, one
// pass sizing each row's span and a second writing the entries, then
// the pair index the same way from nbr.
func (v *searchView) buildNeighbours() {
	v.nbrAt = make([]int32, v.m+1)
	for _, j := range v.repr {
		sup := v.cols.ColSpan(int(j))
		for _, r := range sup {
			v.nbrAt[r+1] += int32(1 + len(sup))
		}
	}
	for r := 0; r < v.m; r++ {
		v.nbrAt[r+1] += v.nbrAt[r]
	}
	v.nbr = make([]int32, v.nbrAt[v.m])
	at := slices.Clone(v.nbrAt[:v.m])
	for i, j := range v.repr {
		sup := v.cols.ColSpan(int(j))
		for _, r := range sup {
			e := v.nbr[at[r]:]
			e[0], e[1] = v.mult[i], int32(len(sup)-1)
			k := 2
			for _, o := range sup {
				if o != r {
					e[k] = o
					k++
				}
			}
			at[r] += int32(k)
		}
	}

	m := v.m
	v.pairAt = make([]int32, m*m+1)
	v.forEachPair(func(cell int, _ int32) { v.pairAt[cell+1]++ })
	for c := 0; c < m*m; c++ {
		v.pairAt[c+1] += v.pairAt[c]
	}
	v.pairs = make([]int32, v.pairAt[m*m])
	// Place each entry at its cell's cursor pairAt[cell], which then
	// ends at the next cell's start; shifting by one restores the starts.
	v.forEachPair(func(cell int, e int32) {
		v.pairs[v.pairAt[cell]] = e
		v.pairAt[cell]++
	})
	copy(v.pairAt[1:], v.pairAt[:m*m])
	v.pairAt[0] = 0
}

// forEachPair calls f(r·m+s, offset) for every neighbour entry of every
// row r and every other row s it lists.
func (v *searchView) forEachPair(f func(cell int, e int32)) {
	for r := 0; r < v.m; r++ {
		for e := v.nbrAt[r]; e < v.nbrAt[r+1]; {
			_, others, _ := nextNeighbour(v.nbr[e:])
			for _, s := range others {
				f(r*v.m+int(s), e)
			}
			e += 2 + int32(len(others))
		}
	}
}

// boundOne is the fixed-point unit of the coverage bound's pair shares.
const boundOne = 1 << 32

// buildBound fills boundTop. The share of row x in row r is, over the
// distinct columns of weight w ≥ 2 holding both, mult/(w(w−1)), each
// term rounded up to a multiple of 1/boundOne so the sum never falls
// below the exact value at any weight. rank[k] sums the (k+1)-th largest
// share of every row.
func (v *searchView) buildBound() {
	acc := make([]int64, v.m)
	rank := make([]int64, v.m)
	var touched []int32
	var shares []int64
	for r := 0; r < v.m; r++ {
		touched = touched[:0]
		var mult int
		var others []int32
		for span := v.neighbours(r); len(span) > 0; {
			mult, others, span = nextNeighbour(span)
			pairs := int64(len(others)+1) * int64(len(others))
			share := (int64(mult)*boundOne + pairs - 1) / pairs
			for _, x := range others {
				if acc[x] == 0 {
					touched = append(touched, x)
				}
				acc[x] += share
			}
		}
		shares = shares[:0]
		for _, x := range touched {
			shares = append(shares, acc[x])
			acc[x] = 0
		}
		slices.Sort(shares)
		for i, s := range shares {
			rank[len(shares)-1-i] += s
		}
	}
	v.boundTop = make([]int64, v.m+1)
	for k, s := range rank {
		v.boundTop[k+1] = v.boundTop[k] + s
	}
}

// coverageBound is an upper limit on the interior columns of any
// partition of the rows into groups of s. An interior column of weight
// w ≥ 2 is counted once over its w(w−1) ordered pairs of rows, and every
// pair whose first row is r pairs r with one of the s−1 other rows of
// its group: so the columns of weight ≥ 2 interior to the partition
// number at most the sum over rows of each row's s−1 largest shares.
// The unit columns are interior to every partition. A plan covers K·n_D
// columns, at most its interior count, so no partition into groups of
// m/K rows covers more than coverageBound(m/K).
func (v *searchView) coverageBound(s int) int {
	return v.unitTotal + int(v.boundTop[min(max(s-1, 0), v.m)]/boundOne)
}
