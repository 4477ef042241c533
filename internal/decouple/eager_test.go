package decouple

import (
	"slices"

	"vegapunk/internal/gf2"
)

// The eager reference: what the search did before plans were ranked
// unbuilt — materialise every candidate, then pick the best that
// validates. Tests compare the plan-first selection against it.

// contiguous is the partition of m rows into K runs of m/K consecutive
// rows.
func contiguous(m, K int) [][]int {
	groups := make([][]int, K)
	for r := 0; r < m; r++ {
		groups[r/(m/K)] = append(groups[r/(m/K)], r)
	}
	return groups
}

func buildPlan(v *searchView, p *plan, err error) (*Decoupling, error) {
	if err != nil {
		return nil, err
	}
	return p.build(v)
}

func synthesize(v *searchView, groups [][]int) (*Decoupling, error) {
	p, err := planPartition(v, groups)
	return buildPlan(v, p, err)
}

// eagerBestForK builds every plan of one K and returns the best valid
// artifact.
func eagerBestForK(v *searchView, K int, opts Options) *Decoupling {
	var cands []*Decoupling
	for _, p := range planK(v, K, new(scratch)).plans {
		if dec, err := p.build(v); err == nil {
			cands = append(cands, dec)
		}
	}
	return bestValid(v.D, cands)
}

// bestValid returns the best of cands that passes Validate(D), or nil:
// max coverage, then min nnz, first found on ties.
func bestValid(D *gf2.Dense, cands []*Decoupling) *Decoupling {
	for len(cands) > 0 {
		best := 0
		for i, dec := range cands {
			b := cands[best]
			if dec.K*dec.ND > b.K*b.ND || (dec.K*dec.ND == b.K*b.ND && dec.NNZ() < b.NNZ()) {
				best = i
			}
		}
		if cands[best].Validate(D) == nil {
			return cands[best]
		}
		cands = slices.Delete(cands, best, best+1)
	}
	return nil
}
