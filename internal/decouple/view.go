package decouple

import (
	"encoding/binary"
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
	// vecs[j] is column j packed into words.
	vecs []bitvec
	// distinct lists each distinct nonzero column of D as every column
	// index that carries it, in order of first appearance.
	distinct [][]int
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
}

func newSearchView(D *gf2.Dense) *searchView {
	m, n := D.Rows(), D.Cols()
	v := &searchView{
		D: D, m: m, n: n,
		cols: gf2.CSCFromDense(D),
		vecs: make([]bitvec, n),
	}
	words := wordsFor(m)
	packed := make(bitvec, n*words)
	// Equal columns share a key, their packed words as bytes.
	key := make([]byte, 8*words)
	groupAt := make(map[string]int, n)
	for j := 0; j < n; j++ {
		sup := v.cols.ColSpan(j)
		vec := packed[j*words : (j+1)*words : (j+1)*words]
		v.vecs[j] = vec
		for _, r := range sup {
			vec[r/64] |= 1 << (uint(r) % 64)
		}
		if len(sup) == 0 {
			continue
		}
		for i, w := range vec {
			binary.LittleEndian.PutUint64(key[8*i:], w)
		}
		if g, ok := groupAt[string(key)]; ok {
			v.distinct[g] = append(v.distinct[g], j)
			continue
		}
		groupAt[string(key)] = len(v.distinct)
		v.distinct = append(v.distinct, []int{j})
	}
	v.buildNeighbours()
	return v
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
	for _, cols := range v.distinct {
		if sup := v.cols.ColSpan(cols[0]); len(sup) >= 2 {
			for _, r := range sup {
				v.nbrAt[r+1] += int32(1 + len(sup))
			}
		}
	}
	for r := 0; r < v.m; r++ {
		v.nbrAt[r+1] += v.nbrAt[r]
	}
	v.nbr = make([]int32, v.nbrAt[v.m])
	at := slices.Clone(v.nbrAt[:v.m])
	for _, cols := range v.distinct {
		sup := v.cols.ColSpan(cols[0])
		if len(sup) < 2 {
			continue
		}
		for _, r := range sup {
			e := v.nbr[at[r]:]
			e[0], e[1] = int32(len(cols)), int32(len(sup)-1)
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
	fill := slices.Clone(v.pairAt[:m*m])
	v.forEachPair(func(cell int, e int32) {
		v.pairs[fill[cell]] = e
		fill[cell]++
	})
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
