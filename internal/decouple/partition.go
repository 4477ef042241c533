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
	// try the largest feasible K first). It must divide the number of
	// rows m, so lie in [1, m]; Decouple rejects any other value before
	// searching.
	ForceK int
	// HintKs lists structure-derived block counts to try before the
	// generic search (the paper's §4.2 analytic rules: K = t for
	// hypergraph products, K near min(l, m) for BB codes). The first
	// hint that yields a valid decoupling wins.
	HintKs []int
	// Seed drives the randomized refinement.
	Seed uint64
	// MinCoverage is the fraction of columns the diagonal blocks must
	// absorb for a K to count as successful (default 0.5); the search
	// accepts the largest successful K, per the paper's selection rule.
	MinCoverage float64
}

// refinePasses is the number of local-search sweeps over row swaps.
const refinePasses = 2

// Decouple searches for the best decoupling of D following the paper's
// procedure: iterate K from the largest feasible candidate downward and
// return the first K for which a valid block structure exists, choosing
// among partition strategies by the Eq. 11 sparsity objective. The
// returned artifact has passed Validate(D).
//
// Each K is planned first and materialised last: a plan fixes the
// coverage without forming T, so a K whose best plan falls short of
// MinCoverage costs no inverse, no T·D, no validation, and no pivot
// choice for its row partitions.
//
// The K values are independent searches over one shared read-only view
// of D and run concurrently, but their results are read in the order
// above, so the artifact does not depend on scheduling or GOMAXPROCS.
func Decouple(D *gf2.Dense, opts Options) (*Decoupling, error) {
	v := newSearchView(D)
	m, S := v.m, v.cols.MaxColWeight()
	var ks []int
	if K := opts.ForceK; K != 0 {
		if K < 1 || K > m || m%K != 0 {
			return nil, fmt.Errorf("decouple: ForceK %d does not divide m = %d", K, m)
		}
		ks = []int{K}
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
	success := func(blockCols int) bool { return covers(blockCols, v.n, minCover) }

	// Structure hints first, in the caller's preference order, then the
	// paper's rule: largest K first, accepting the first success.
	// "Success" here means the blocks absorb at least MinCoverage of the
	// columns — small blocks with decent coverage are exactly what keeps
	// GreedyGuess effective and the hardware parallel. If no K clears
	// the bar, fall back to the best coverage seen among the rule's Ks.
	order := searchOrder(m, opts.HintKs, ks)
	results := searchKs(order, func(K int) *candidates {
		c := planK(v, K, opts.Seed)
		c.won = c.best(success)
		return c
	}, func(c *candidates) bool { return c.won != nil })
	for _, c := range results {
		if c != nil && c.won != nil {
			return c.won, nil
		}
	}
	// No success, so every K was searched and none built a plan below
	// the bar; build those now.
	var fallback *Decoupling
	for _, K := range ks {
		dec := results[slices.Index(order, K)].best(func(int) bool { return true })
		if dec != nil && (fallback == nil || dec.K*dec.ND > fallback.K*fallback.ND) {
			fallback = dec
		}
	}
	if fallback == nil {
		return nil, fmt.Errorf("decouple: no valid block structure found for any K (m=%d, S=%d)", m, S)
	}
	return fallback, nil
}

// covers reports whether blocks absorbing blockCols of n columns reach
// the fraction minCover. It is the only coverage test: plans are cut off
// and artifacts accepted by the same division on the same integers.
func covers(blockCols, n int, minCover float64) bool {
	return float64(blockCols)/float64(n) >= minCover
}

// searchOrder lists each K to search once, in the order results are
// read: the usable hints, then the rule's ks not already hinted.
func searchOrder(m int, hintKs, ks []int) []int {
	var order []int
	for _, K := range hintKs {
		if K >= 2 && m%K == 0 && !slices.Contains(order, K) {
			order = append(order, K)
		}
	}
	for _, K := range ks {
		if !slices.Contains(order, K) {
			order = append(order, K)
		}
	}
	return order
}

// searchKs evaluates search(tries[i]) on min(GOMAXPROCS, len(tries))
// goroutines, handing indices out in order and handing out no more once
// any result is a success (everything before it is already running or
// done, and nothing after it can be chosen). Every goroutine has exited
// when it returns; slots that were never started stay zero, and all of
// them lie after the first success.
func searchKs[R any](tries []int, search func(K int) R, success func(R) bool) []R {
	results := make([]R, len(tries))
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

// candidates is one K's search: the plans of its candidate partitions, in
// the order candidatePartitions lists them, and the validated winner once
// best has found one.
type candidates struct {
	v     *searchView
	plans []*plan
	won   *Decoupling
}

// planK plans every candidate row partition for one K and keeps the
// plans that worked out.
func planK(v *searchView, K int, seed uint64) *candidates {
	c := &candidates{v: v}
	for _, groups := range candidatePartitions(v, K, seed) {
		if p, err := planPartition(v, groups); err == nil {
			c.plans = append(c.plans, p)
		}
	}
	return c
}

// best returns the best remaining candidate that validates: max
// coverage, then min nnz, first found on ties. Coverage is known from
// the plan, so only the plans tied at the top coverage are built (nnz
// needs T·D), and only while accept(K·n_D) holds there: below it best
// returns nil and leaves the rest unbuilt. Only the candidate about to
// win is validated; one that fails to build or validate is dropped and
// the next best takes its place.
func (c *candidates) best(accept func(blockCols int) bool) *Decoupling {
	for len(c.plans) > 0 {
		top := 0
		for _, p := range c.plans {
			top = max(top, p.blockCols())
		}
		if !accept(top) {
			return nil
		}
		c.plans = slices.DeleteFunc(c.plans, func(p *plan) bool {
			if p.blockCols() != top || p.dec != nil {
				return false
			}
			var err error
			p.dec, err = p.build(c.v)
			return err != nil
		})
		best := -1
		for i, p := range c.plans {
			if p.blockCols() == top && (best < 0 || p.dec.NNZ() < c.plans[best].dec.NNZ()) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		dec := c.plans[best].dec
		c.plans = slices.Delete(c.plans, best, best+1)
		if dec.Validate(c.v.D) == nil {
			return dec
		}
	}
	return nil
}

// candidatePartitions generates the distinct row partitions to try for
// a given K: contiguous chunks, strided rows, greedy affinity
// clustering, and the refined variant of each (dropped when refinement
// accepted no swap, or lands on a partition already listed — equal
// partitions give equal plans).
func candidatePartitions(v *searchView, K int, seed uint64) [][][]int {
	m := v.m
	var out [][][]int
	add := func(p [][]int) {
		for _, q := range out {
			if samePartition(p, q) {
				return
			}
		}
		out = append(out, p)
	}

	strided := make([][]int, K)
	for r := 0; r < m; r++ {
		strided[r%K] = append(strided[r%K], r)
	}
	for _, p := range [][][]int{contiguous(m, K), strided, affinityPartition(v, K)} {
		add(p)
		add(refinePartition(v, p, refinePasses, seed))
	}
	return out
}

// contiguous is the partition of m rows into K runs of m/K consecutive
// rows.
func contiguous(m, K int) [][]int {
	groups := make([][]int, K)
	for r := 0; r < m; r++ {
		groups[r/(m/K)] = append(groups[r/(m/K)], r)
	}
	return groups
}

func samePartition(p, q [][]int) bool {
	return slices.EqualFunc(p, q, func(a, b []int) bool { return slices.Equal(a, b) })
}

// affinityPartition grows K balanced groups greedily by row affinity
// (number of columns two rows share).
func affinityPartition(v *searchView, K int) [][]int {
	m := v.m
	mD := m / K
	// addAffinity adds sign times row r's affinity with each row to acc.
	addAffinity := func(acc []int, r, sign int) {
		var mult int
		var others []int32
		for span := v.neighbours(r); len(span) > 0; {
			mult, others, span = nextNeighbour(span)
			for _, o := range others {
				acc[o] += sign * mult
			}
		}
	}
	assigned := make([]bool, m)
	groups := make([][]int, K)
	gain := make([]int, m)
	// mass[r] is row r's affinity to the rows not yet assigned.
	mass := make([]int, m)
	for r := range mass {
		addAffinity(mass, r, +1)
	}
	assign := func(r int) {
		assigned[r] = true
		addAffinity(mass, r, -1)
	}
	for g := 0; g < K; g++ {
		// Seed: unassigned row with the largest remaining affinity mass.
		seed, bestMass := -1, -1
		for r := 0; r < m; r++ {
			if !assigned[r] && mass[r] > bestMass {
				seed, bestMass = r, mass[r]
			}
		}
		groups[g] = append(make([]int, 0, mD), seed)
		assign(seed)
		// Grow by the strongest connection to the group.
		clear(gain)
		addAffinity(gain, seed, +1)
		for len(groups[g]) < mD {
			next, bestGain := -1, -1
			for s := 0; s < m; s++ {
				if !assigned[s] && gain[s] > bestGain {
					next, bestGain = s, gain[s]
				}
			}
			groups[g] = append(groups[g], next)
			assign(next)
			addAffinity(gain, next, +1)
		}
		sort.Ints(groups[g])
	}
	return groups
}

// uniformGroup returns the group holding every row of a nonempty column
// support, or -1 when the support crosses groups.
func uniformGroup(sup []int32, groupOf []int) int {
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
// modified.
func refinePartition(v *searchView, groups [][]int, passes int, seed uint64) [][]int {
	m := v.m
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	rf := newRefiner(v, groups)
	for pass := 0; pass < passes; pass++ {
		improved := false
		order := rng.Perm(m)
		for _, r := range order {
			for trial := 0; trial < 8; trial++ {
				s := rng.IntN(m)
				if rf.groupOf[r] == rf.groupOf[s] {
					continue
				}
				if rf.gain(r, s) > 0 {
					rf.swap(r, s)
					improved = true
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
		out[rf.groupOf[r]] = append(out[rf.groupOf[r]], r)
	}
	return out
}

// refiner is a row partition under refinement. confined[r·K+g] counts,
// with multiplicity, the columns of weight ≥ 2 on row r whose other rows
// all lie in group g: such a column is interior iff r is in g too. A
// swap trial is then four table cells plus the columns the two rows
// share, read from the view's pair index; the table is brought up to
// date only when a swap is accepted, which few trials are.
type refiner struct {
	v        *searchView
	K        int
	groupOf  []int
	confined []int
}

func newRefiner(v *searchView, groups [][]int) *refiner {
	rf := &refiner{v: v, K: len(groups), groupOf: make([]int, v.m), confined: make([]int, v.m*len(groups))}
	for g, rs := range groups {
		for _, r := range rs {
			rf.groupOf[r] = g
		}
	}
	var mult int
	var others []int32
	for r := 0; r < v.m; r++ {
		for span := v.neighbours(r); len(span) > 0; {
			mult, others, span = nextNeighbour(span)
			if g := rf.groupOf[others[0]]; rf.allIn(others, g, -1) {
				rf.confined[r*rf.K+g] += mult
			}
		}
	}
	return rf
}

// allIn reports whether every row of others except skip lies in group g.
func (rf *refiner) allIn(others []int32, g int, skip int32) bool {
	for _, o := range others {
		if o != skip && rf.groupOf[o] != g {
			return false
		}
	}
	return true
}

// gain returns the change in the number of interior columns if rows r
// and s, which lie in different groups, trade places. Only a column on r
// or s can change: on r it becomes interior when the rest of it lies in
// s's group and stops being interior when the rest lies in r's, and
// likewise on s.
func (rf *refiner) gain(r, s int) int {
	a, b := rf.groupOf[r], rf.groupOf[s]
	d := rf.confined[r*rf.K+b] - rf.confined[r*rf.K+a] + rf.confined[s*rf.K+a] - rf.confined[s*rf.K+b]
	// A column holding both rows stays crossing, yet the table has it
	// becoming interior when everything on it but r lies in b (s does),
	// or everything but s in a.
	return d - rf.sharedConfined(r, s, b) - rf.sharedConfined(s, r, a)
}

// sharedConfined counts the columns on r that also hold s and whose
// rows other than r all lie in group g.
func (rf *refiner) sharedConfined(r, s, g int) int {
	n := 0
	for _, at := range rf.v.shared(r, s) {
		mult, others, _ := nextNeighbour(rf.v.nbr[at:])
		if rf.allIn(others, g, -1) {
			n += mult
		}
	}
	return n
}

// swap trades the groups of rows r and s and updates the table for the
// rows of every column on either.
func (rf *refiner) swap(r, s int) {
	rf.tally(r, -1, -1)
	rf.tally(s, r, -1)
	rf.groupOf[r], rf.groupOf[s] = rf.groupOf[s], rf.groupOf[r]
	rf.tally(r, -1, +1)
	rf.tally(s, r, +1)
}

// tally adds sign·multiplicity to the table for every column on row,
// except those that also hold skip, in the cell of each of its rows
// whose fellow rows all lie in one group.
func (rf *refiner) tally(row, skip, sign int) {
	var mult int
	var others []int32
	for span := rf.v.neighbours(row); len(span) > 0; {
		mult, others, span = nextNeighbour(span)
		if slices.Contains(others, int32(skip)) {
			continue
		}
		if g := rf.groupOf[others[0]]; rf.allIn(others, g, -1) {
			rf.confined[row*rf.K+g] += sign * mult
		}
		// For another row x of the column, the fellows are row and the
		// others but x: all in row's group when no other row lies
		// outside it, or x is the only one that does.
		g := rf.groupOf[row]
		out, outside := 0, int32(-1)
		for _, x := range others {
			if rf.groupOf[x] != g {
				out, outside = out+1, x
			}
		}
		switch out {
		case 0:
			for _, x := range others {
				rf.confined[int(x)*rf.K+g] += sign * mult
			}
		case 1:
			rf.confined[int(outside)*rf.K+g] += sign * mult
		}
	}
}
