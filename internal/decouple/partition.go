package decouple

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vegapunk/internal/gf2"
)

// Options tunes the decoupling search.
type Options struct {
	// ForceK pins the number of blocks (0 = the paper's divisor rule:
	// try the largest feasible K first).
	ForceK int
	// HintKs lists structure-derived block counts to try before the
	// generic search (the paper's §4.2 analytic rules: K = t for
	// hypergraph products, K near min(l, m) for BB codes). The first
	// hint that yields a valid decoupling wins.
	HintKs []int
	// RefinePasses is the number of local-search sweeps over row swaps
	// (default 2).
	RefinePasses int
	// UseSAT enables the exact SAT partition search for small matrices.
	UseSAT bool
	// SATMaxCells caps m·K for the SAT mode (default 512).
	SATMaxCells int
	// SATConflictBudget bounds the SAT search (default 50000 conflicts).
	SATConflictBudget int
	// Seed drives the randomized refinement.
	Seed uint64
	// MinCoverage is the fraction of columns the diagonal blocks must
	// absorb for a K to count as successful (default 0.5); the search
	// accepts the largest successful K, per the paper's selection rule.
	MinCoverage float64
}

func (o Options) withDefaults() Options {
	if o.RefinePasses == 0 {
		o.RefinePasses = 2
	}
	if o.SATMaxCells == 0 {
		o.SATMaxCells = 512
	}
	if o.SATConflictBudget == 0 {
		o.SATConflictBudget = 50000
	}
	return o
}

// Decouple searches for the best decoupling of D following the paper's
// procedure: iterate K from the largest feasible candidate downward and
// return the first K for which a valid block structure exists, choosing
// among partition strategies by the Eq. 11 sparsity objective. The
// returned artifact has passed Validate(D).
//
// The K values are independent searches over one shared read-only view
// of D and run concurrently, but their results are read in the order
// above, so the artifact does not depend on scheduling or GOMAXPROCS.
func Decouple(D *gf2.Dense, opts Options) (*Decoupling, error) {
	opts = opts.withDefaults()
	v := newSearchView(D)
	m, S := v.m, v.cols.MaxColWeight()
	var ks []int
	if opts.ForceK > 0 {
		ks = []int{opts.ForceK}
	} else {
		ks = candidateKs(m, S)
	}
	if len(ks) == 0 {
		return nil, fmt.Errorf("decouple: no feasible K for m=%d, S=%d", m, S)
	}
	minCover := opts.MinCoverage
	if minCover <= 0 {
		minCover = 0.5
	}
	covered := func(d *Decoupling) float64 { return float64(d.K*d.ND) / float64(d.N) }
	success := func(d *Decoupling) bool { return d != nil && covered(d) >= minCover }

	// Structure hints first, in the caller's preference order, then the
	// paper's rule: largest K first, accepting the first success.
	// "Success" here means the blocks absorb at least MinCoverage of the
	// columns — small blocks with decent coverage are exactly what keeps
	// GreedyGuess effective and the hardware parallel. If no K clears
	// the bar, fall back to the best coverage seen among the rule's Ks.
	var tries []int
	for _, K := range opts.HintKs {
		if K >= 2 && m%K == 0 {
			tries = append(tries, K)
		}
	}
	hints := len(tries)
	tries = append(tries, ks...)
	var fallback *Decoupling
	for i, dec := range searchKs(tries, func(K int) *Decoupling { return bestForK(v, K, opts) }, success) {
		if success(dec) {
			return dec, nil
		}
		if i >= hints && dec != nil && (fallback == nil || covered(dec) > covered(fallback)) {
			fallback = dec
		}
	}
	if fallback == nil {
		return nil, fmt.Errorf("decouple: no valid block structure found for any K (m=%d, S=%d)", m, S)
	}
	return fallback, nil
}

// searchKs evaluates search(tries[i]) on min(GOMAXPROCS, len(tries))
// goroutines, handing indices out in order and handing out no more once
// any result is a success (everything before it is already running or
// done, and nothing after it can be chosen). Every goroutine has exited
// when it returns; slots that were never started stay nil, and all of
// them lie after the first success.
func searchKs(tries []int, search func(K int) *Decoupling, success func(*Decoupling) bool) []*Decoupling {
	results := make([]*Decoupling, len(tries))
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(tries)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(tries) {
					return
				}
				results[i] = search(tries[i])
				if success(results[i]) {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// bestForK runs every strategy for one K — row partitions synthesized
// with a block-local T, and the general-T direct-sum subspace search
// (the paper's arbitrary full-rank T) — and returns the best candidate
// that validates: max coverage, then min nnz, first found on ties.
// Validation is lazy: only a candidate about to win is checked, and one
// that fails is dropped in favour of the next best.
func bestForK(v *searchView, K int, opts Options) *Decoupling {
	var cands []*Decoupling
	for _, groups := range candidatePartitions(v, K, opts) {
		if dec, err := synthesize(v, groups); err == nil {
			cands = append(cands, dec)
		}
	}
	if dec, err := subspaceDecouple(v, K); err == nil {
		cands = append(cands, dec)
	}
	return bestValid(v.D, cands)
}

// bestValid returns the best of cands that passes Validate(D), or nil.
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

// candidatePartitions generates the distinct row partitions to try for
// a given K: contiguous chunks, strided rows, greedy affinity
// clustering, and the refined variant of each (dropped when refinement
// accepted no swap, or lands on a partition already listed — equal
// partitions synthesize to equal artifacts); plus the SAT-exact
// partition when enabled.
func candidatePartitions(v *searchView, K int, opts Options) [][][]int {
	m := v.m
	mD := m / K
	var out [][][]int
	add := func(p [][]int) {
		for _, q := range out {
			if samePartition(p, q) {
				return
			}
		}
		out = append(out, p)
	}

	contiguous := make([][]int, K)
	for g := 0; g < K; g++ {
		for t := 0; t < mD; t++ {
			contiguous[g] = append(contiguous[g], g*mD+t)
		}
	}
	strided := make([][]int, K)
	for r := 0; r < m; r++ {
		strided[r%K] = append(strided[r%K], r)
	}
	for _, p := range [][][]int{contiguous, strided, affinityPartition(v, K)} {
		add(p)
		add(refinePartition(v, p, opts.RefinePasses, opts.Seed))
	}
	if opts.UseSAT && m*K <= opts.SATMaxCells {
		if p, err := satPartition(v, K, opts.SATConflictBudget); err == nil {
			add(p)
		}
	}
	return out
}

func samePartition(p, q [][]int) bool {
	return slices.EqualFunc(p, q, func(a, b []int) bool { return slices.Equal(a, b) })
}

// affinityPartition grows K balanced groups greedily by row affinity
// (number of columns two rows share).
func affinityPartition(v *searchView, K int) [][]int {
	m, aff := v.m, v.aff
	mD := m / K
	assigned := make([]bool, m)
	groups := make([][]int, K)
	gain := make([]int, m)
	for g := 0; g < K; g++ {
		// Seed: unassigned row with the largest remaining affinity mass.
		seed, bestMass := -1, -1
		for r := 0; r < m; r++ {
			if assigned[r] {
				continue
			}
			mass := 0
			for s := 0; s < m; s++ {
				if !assigned[s] {
					mass += aff[r][s]
				}
			}
			if mass > bestMass {
				seed, bestMass = r, mass
			}
		}
		groups[g] = []int{seed}
		assigned[seed] = true
		// Grow by the strongest connection to the group.
		copy(gain, aff[seed])
		for len(groups[g]) < mD {
			next, bestGain := -1, -1
			for s := 0; s < m; s++ {
				if assigned[s] {
					continue
				}
				if gain[s] > bestGain {
					next, bestGain = s, gain[s]
				}
			}
			groups[g] = append(groups[g], next)
			assigned[next] = true
			for s := 0; s < m; s++ {
				gain[s] += aff[next][s]
			}
		}
		sort.Ints(groups[g])
	}
	return groups
}

// uniformGroup returns the group holding every row of a nonempty column
// support, or -1 when the support crosses groups.
func uniformGroup(sup, groupOf []int) int {
	g := groupOf[sup[0]]
	for _, r := range sup[1:] {
		if groupOf[r] != g {
			return -1
		}
	}
	return g
}

// refinePartition performs randomized local search: swap rows across
// groups when the number of interior columns increases. groups is not
// modified. A swap of rows r and s can only change the columns on r or
// s, so each trial counts interior columns over that union before and
// after; the union is gathered into one reused buffer, deduplicated by
// stamping each column with the trial's epoch, so a trial allocates
// nothing.
func refinePartition(v *searchView, groups [][]int, passes int, seed uint64) [][]int {
	m := v.m
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	groupOf := make([]int, m)
	for g, rs := range groups {
		for _, r := range rs {
			groupOf[r] = g
		}
	}
	stamp := make([]int, v.n) // epoch of the trial that last gathered the column
	touched := make([]int, 0, v.n)
	interiorCount := func() int {
		c := 0
		for _, j := range touched {
			if uniformGroup(v.cols.ColSupport(j), groupOf) >= 0 {
				c++
			}
		}
		return c
	}
	epoch := 0
	for pass := 0; pass < passes; pass++ {
		improved := false
		order := rng.Perm(m)
		for _, r := range order {
			for trial := 0; trial < 8; trial++ {
				s := rng.IntN(m)
				if groupOf[r] == groupOf[s] {
					continue
				}
				epoch++
				touched = touched[:0]
				for _, row := range [2]int{r, s} {
					for _, j := range v.colsOfRow[row] {
						if stamp[j] != epoch {
							stamp[j] = epoch
							touched = append(touched, j)
						}
					}
				}
				before := interiorCount()
				groupOf[r], groupOf[s] = groupOf[s], groupOf[r]
				if interiorCount() > before {
					improved = true
				} else {
					groupOf[r], groupOf[s] = groupOf[s], groupOf[r]
				}
			}
		}
		if !improved {
			break
		}
	}
	out := make([][]int, len(groups))
	for g := range out {
		out[g] = make([]int, 0, len(groups[g]))
	}
	for r := 0; r < m; r++ {
		out[groupOf[r]] = append(out[groupOf[r]], r)
	}
	return out
}
