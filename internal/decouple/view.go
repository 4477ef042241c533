package decouple

import (
	"slices"
	"sort"

	"vegapunk/internal/gf2"
)

// colGroup is one distinct nonzero column of D with every column index
// that carries it.
type colGroup struct {
	vec  bitvec
	cols []int
}

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
	// unitCol[r] is the first weight-1 column on row r, or -1.
	unitCol []int
	// aff[r][s] counts the columns rows r and s share.
	aff [][]int
	// distinct lists the distinct nonzero columns, most frequent first
	// (ties in first-appearance order).
	distinct []colGroup
	// nbr is the swap-trial neighbour table: nbr[nbrAt[r]:nbrAt[r+1]]
	// lists every distinct column of weight ≥ 2 on row r as
	// (multiplicity, number of other rows, the other rows…). Unit
	// columns are interior to any partition and never appear.
	nbr   []int32
	nbrAt []int32
}

func newSearchView(D *gf2.Dense) *searchView {
	m, n := D.Rows(), D.Cols()
	v := &searchView{
		D: D, m: m, n: n,
		cols:    gf2.CSCFromDense(D),
		vecs:    make([]bitvec, n),
		unitCol: make([]int, m),
		aff:     make([][]int, m),
	}
	affCells := make([]int, m*m)
	for r := range v.aff {
		v.aff[r] = affCells[r*m : (r+1)*m]
		v.unitCol[r] = -1
	}
	words := wordsFor(m)
	packed := make(bitvec, n*words)
	groupAt := map[string]int{}
	for j := 0; j < n; j++ {
		sup := v.cols.ColSpan(j)
		vec := packed[j*words : (j+1)*words : (j+1)*words]
		v.vecs[j] = vec
		for a, r := range sup {
			vec[r/64] |= 1 << (uint(r) % 64)
			for _, s := range sup[a+1:] {
				v.aff[r][s]++
				v.aff[s][r]++
			}
		}
		if len(sup) == 0 {
			continue
		}
		if len(sup) == 1 && v.unitCol[sup[0]] < 0 {
			v.unitCol[sup[0]] = j
		}
		key := string(fmtKey(vec))
		if g, ok := groupAt[key]; ok {
			v.distinct[g].cols = append(v.distinct[g].cols, j)
			continue
		}
		groupAt[key] = len(v.distinct)
		v.distinct = append(v.distinct, colGroup{vec: vec, cols: []int{j}})
	}
	sort.SliceStable(v.distinct, func(a, b int) bool { return len(v.distinct[a].cols) > len(v.distinct[b].cols) })
	v.buildNeighbours()
	return v
}

// neighbours returns row r's span of the neighbour table.
func (v *searchView) neighbours(r int) []int32 { return v.nbr[v.nbrAt[r]:v.nbrAt[r+1]] }

// nextNeighbour splits the first entry off a neighbour span.
func nextNeighbour(span []int32) (mult int, others, rest []int32) {
	end := 2 + span[1]
	return int(span[0]), span[2:end], span[end:]
}

// buildNeighbours fills nbr and nbrAt from the distinct columns: one
// pass sizes each row's span, a second writes the entries.
func (v *searchView) buildNeighbours() {
	v.nbrAt = make([]int32, v.m+1)
	for _, g := range v.distinct {
		if sup := v.cols.ColSpan(g.cols[0]); len(sup) >= 2 {
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
	for _, g := range v.distinct {
		sup := v.cols.ColSpan(g.cols[0])
		if len(sup) < 2 {
			continue
		}
		for _, r := range sup {
			e := v.nbr[at[r]:]
			e[0], e[1] = int32(len(g.cols)), int32(len(sup)-1)
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
}

// fmtKey serializes a bitvec for map keying.
func fmtKey(v bitvec) []byte {
	b := make([]byte, 8*len(v))
	for i, w := range v {
		for k := 0; k < 8; k++ {
			b[8*i+k] = byte(w >> (8 * k))
		}
	}
	return b
}
