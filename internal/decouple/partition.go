package decouple

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"vegapunk/internal/gf2"
)

// Options tunes the decoupling search. The K rule itself is fixed: the
// paper's divisor rule, largest feasible K first, and a K succeeds once
// its blocks absorb minCoverage of the columns.
type Options struct {
	// HintKs lists structure-derived block counts to try before the
	// generic search (the paper's §4.2 analytic rules: K = t for
	// hypergraph products, K near min(l, m) for BB codes). The first
	// hint that yields a valid decoupling wins.
	HintKs []int
	// Seed drives the randomized refinement.
	Seed uint64
}

// minCoverage is the fraction of columns the diagonal blocks must
// absorb for a K to count as successful; the search accepts the
// largest successful K, per the paper's selection rule.
const minCoverage = 0.5

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
// minCoverage costs no inverse, no T·D, no validation, and no pivot
// choice for its row partitions. A K whose coverage bound (the view's
// coverageBound) already falls short is not planned at all.
//
// The K values are planned concurrently over one shared read-only view
// of D but resolved in the order above, each only once every K before it
// has fallen short, so no K after the winner is built and the artifact
// does not depend on scheduling or GOMAXPROCS.
func Decouple(D *gf2.Dense, opts Options) (*Decoupling, error) {
	v := newSearchView(D, opts.Seed)
	m, S := v.m, v.cols.MaxColWeight()
	ks := candidateKs(m, S)
	if len(ks) == 0 {
		return nil, fmt.Errorf("decouple: no feasible K for m=%d, S=%d", m, S)
	}
	success := func(blockCols int) bool { return covers(blockCols, v.n, minCoverage) }

	// Structure hints first, in the caller's preference order, then the
	// paper's rule: largest K first, accepting the first success.
	// "Success" here means the blocks absorb at least minCoverage of the
	// columns — small blocks with decent coverage are exactly what keeps
	// GreedyGuess effective and the hardware parallel. If no K clears
	// the bar, fall back to the best coverage seen among the rule's Ks.
	searched := slices.DeleteFunc(searchOrder(m, opts.HintKs, ks), func(K int) bool {
		return !success(v.coverageBound(m / K))
	})
	results, won := searchKs(searched, func(K int, sc *scratch) *candidates {
		return planK(v, K, sc)
	}, func(c *candidates) bool {
		c.won = c.best(success)
		return c.won != nil
	})
	if won >= 0 {
		return results[won].won, nil
	}
	// No success, so every searched K was planned and none built a plan
	// below the bar; plan the skipped Ks too and build the best of all.
	var fallback *Decoupling
	var sc scratch
	for _, K := range ks {
		var c *candidates
		if i := slices.Index(searched, K); i >= 0 {
			c = results[i]
		} else {
			c = planK(v, K, &sc)
		}
		dec := c.best(func(int) bool { return true })
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

// searchKs plans every tries[i] on min(GOMAXPROCS, len(tries))
// goroutines, each with its own scratch, handing indices out in order,
// and resolves the plans in the same order: resolve(results[i]) runs
// only once every earlier result has resolved false, on whichever
// goroutine finds it next in line. The first true ends the search: no
// index is handed out after it and none after it is resolved, though
// plans already handed out still finish. It returns every result (slots
// never handed out stay zero) and the index of the first true, or -1.
// Every goroutine has exited when it returns.
func searchKs[R any](tries []int, plan func(K int, sc *scratch) R, resolve func(R) bool) (results []R, won int) {
	results = make([]R, len(tries))
	won = -1
	var (
		mu        sync.Mutex
		planned   = make([]bool, len(tries))
		next      int  // next index to hand out
		due       int  // next index to resolve
		resolving bool // a goroutine is resolving due
		wg        sync.WaitGroup
	)
	for w := min(runtime.GOMAXPROCS(0), len(tries)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for {
				mu.Lock()
				if won >= 0 || next == len(tries) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				r := plan(tries[i], &sc)

				mu.Lock()
				results[i], planned[i] = r, true
				if !resolving {
					resolving = true
					for won < 0 && due < len(tries) && planned[due] {
						mu.Unlock()
						ok := resolve(results[due])
						mu.Lock()
						if ok {
							won = due
						} else {
							due++
						}
					}
					resolving = false
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return results, won
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
func planK(v *searchView, K int, sc *scratch) *candidates {
	c := &candidates{v: v}
	for _, groups := range candidatePartitions(v, K, sc) {
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

// scratch is one search goroutine's reusable buffers: the refiner's
// table, the affinity clustering's tallies, and the rows of the
// partitions candidatePartitions hands out for one K.
type scratch struct {
	rf         refiner
	assigned   []bool
	gain, mass []int
	rows       []int
	heads      [][]int
}

// partitionsPerK is the most partitions candidatePartitions lists.
const partitionsPerK = 6

// partition carves K empty groups with room for m/K rows each out of
// the scratch rows. The groups stay valid until candidatePartitions
// starts the next K.
func (sc *scratch) partition(m, K int) [][]int {
	if len(sc.rows)+m > cap(sc.rows) {
		sc.rows = make([]int, 0, partitionsPerK*m)
	}
	if len(sc.heads)+K > cap(sc.heads) {
		sc.heads = make([][]int, 0, partitionsPerK*K)
	}
	rows := sc.rows[len(sc.rows) : len(sc.rows)+m]
	heads := sc.heads[len(sc.heads) : len(sc.heads)+K]
	sc.rows, sc.heads = sc.rows[:len(sc.rows)+m], sc.heads[:len(sc.heads)+K]
	mD := m / K
	for g := range heads {
		heads[g] = rows[g*mD : g*mD : (g+1)*mD]
	}
	return heads
}

// resize returns buf with length n, reallocated only when its capacity
// is short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// candidatePartitions generates the distinct row partitions to try for
// a given K: contiguous chunks, strided rows, greedy affinity
// clustering, and the refined variant of each (dropped when refinement
// accepted no swap, or lands on a partition already listed — equal
// partitions give equal plans). The partitions live in sc until the
// next call.
func candidatePartitions(v *searchView, K int, sc *scratch) [][][]int {
	m, mD := v.m, v.m/K
	sc.rows, sc.heads = sc.rows[:0], sc.heads[:0]
	var out [][][]int
	add := func(p [][]int) {
		for _, q := range out {
			if samePartition(p, q) {
				return
			}
		}
		out = append(out, p)
	}

	contiguous, strided := sc.partition(m, K), sc.partition(m, K)
	for r := 0; r < m; r++ {
		contiguous[r/mD] = append(contiguous[r/mD], r)
		strided[r%K] = append(strided[r%K], r)
	}
	for _, p := range [][][]int{contiguous, strided, affinityPartition(v, K, sc)} {
		add(p)
		add(refinePartition(v, p, v.trials, sc))
	}
	return out
}

func samePartition(p, q [][]int) bool {
	return slices.EqualFunc(p, q, func(a, b []int) bool { return slices.Equal(a, b) })
}

// affinityPartition grows K balanced groups greedily by row affinity
// (number of columns two rows share).
func affinityPartition(v *searchView, K int, sc *scratch) [][]int {
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
	sc.assigned = resize(sc.assigned, m)
	sc.gain = resize(sc.gain, m)
	sc.mass = resize(sc.mass, m)
	assigned, gain, mass := sc.assigned, sc.gain, sc.mass
	clear(assigned)
	// mass[r] is row r's affinity to the rows not yet assigned.
	copy(mass, v.mass)
	assign := func(r int) {
		assigned[r] = true
		addAffinity(mass, r, -1)
	}
	groups := sc.partition(m, K)
	for g := 0; g < K; g++ {
		// Seed: unassigned row with the largest remaining affinity mass.
		seed, bestMass := -1, -1
		for r := 0; r < m; r++ {
			if !assigned[r] && mass[r] > bestMass {
				seed, bestMass = r, mass[r]
			}
		}
		groups[g] = append(groups[g], seed)
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
// groups when the number of interior columns increases, trying the
// swaps in the order trials lists them (newTrials) and stopping after a
// pass that accepts none. groups is not modified; the result lives in
// sc.
func refinePartition(v *searchView, groups [][]int, trials []int32, sc *scratch) [][]int {
	m := v.m
	rf := &sc.rf
	rf.reset(v, groups)
	block := 1 + trialsPerRow
	for pass := 0; pass < len(trials)/max(m*block, 1); pass++ {
		improved := false
		for seq := trials[pass*m*block : (pass+1)*m*block]; len(seq) > 0; seq = seq[block:] {
			r := int(seq[0])
			for _, s := range seq[1:block] {
				if rf.groupOf[r] != rf.groupOf[s] && rf.accepts(r, int(s)) {
					rf.swap(r, int(s))
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	out := sc.partition(m, len(groups))
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

// reset loads the partition groups into rf, reusing its buffers.
func (rf *refiner) reset(v *searchView, groups [][]int) {
	rf.v, rf.K = v, len(groups)
	rf.groupOf = resize(rf.groupOf, v.m)
	rf.confined = resize(rf.confined, v.m*rf.K)
	clear(rf.confined)
	for g, rs := range groups {
		for _, r := range rs {
			rf.groupOf[r] = g
		}
	}
	for i, j := range v.repr {
		sup := v.cols.ColSpan(int(j))
		rf.tally(sup[0], sup[1:], int(v.mult[i]))
	}
}

// allIn reports whether every row of others lies in group g.
func (rf *refiner) allIn(others []int32, g int) bool {
	for _, o := range others {
		if rf.groupOf[o] != g {
			return false
		}
	}
	return true
}

// cells is the change the table alone predicts for the interior
// columns if rows r and s trade places: on r, a column becomes interior
// when the rest of it lies in s's group and stops being interior when
// the rest lies in r's, and likewise on s.
func (rf *refiner) cells(r, s int) int {
	a, b := rf.groupOf[r], rf.groupOf[s]
	return rf.confined[r*rf.K+b] - rf.confined[r*rf.K+a] + rf.confined[s*rf.K+a] - rf.confined[s*rf.K+b]
}

// gain returns the change in the number of interior columns if rows r
// and s, which lie in different groups, trade places. Only a column on r
// or s can change, and cells counts those but for the columns holding
// both rows: such a column stays crossing, yet the table has it becoming
// interior when everything on it but r lies in b (s does), or
// everything but s in a.
func (rf *refiner) gain(r, s int) int {
	a, b := rf.groupOf[r], rf.groupOf[s]
	return rf.cells(r, s) - rf.sharedConfined(r, s, b) - rf.sharedConfined(s, r, a)
}

// accepts reports whether gain(r, s) > 0. The shared-column
// corrections are never negative, so they are read only while the cells
// still promise a gain.
func (rf *refiner) accepts(r, s int) bool {
	d := rf.cells(r, s)
	if d <= 0 {
		return false
	}
	a, b := rf.groupOf[r], rf.groupOf[s]
	if d -= rf.sharedConfined(r, s, b); d <= 0 {
		return false
	}
	return d > rf.sharedConfined(s, r, a)
}

// sharedConfined counts the columns on r that also hold s and whose
// rows other than r all lie in group g.
func (rf *refiner) sharedConfined(r, s, g int) int {
	n := 0
	for _, at := range rf.v.shared(r, s) {
		mult, others, _ := nextNeighbour(rf.v.nbr[at:])
		if rf.allIn(others, g) {
			n += mult
		}
	}
	return n
}

// swap trades the groups of rows r and s and updates the table: the
// columns holding both are taken out under the old groups and put back
// under the new, and every other column on r or s in one pass per row.
func (rf *refiner) swap(r, s int) {
	a, b := rf.groupOf[r], rf.groupOf[s]
	for _, at := range rf.v.shared(r, s) {
		mult, others, _ := nextNeighbour(rf.v.nbr[at:])
		rf.tally(int32(r), others, -mult)
		rf.groupOf[r], rf.groupOf[s] = b, a
		rf.tally(int32(r), others, mult)
		rf.groupOf[r], rf.groupOf[s] = a, b
	}
	rf.move(r, s, a, b)
	rf.move(s, r, b, a)
	rf.groupOf[r], rf.groupOf[s] = b, a
}

// move updates the table for row leaving group from for group to, over
// the columns on row that do not hold peer: their other rows stay put,
// so each column's split is read once and its cells moved.
func (rf *refiner) move(row, peer, from, to int) {
	v := rf.v
	skip := v.shared(row, peer) // ascending, like the entries
	for e, end := v.nbrAt[row], v.nbrAt[row+1]; e < end; {
		mult, others, _ := nextNeighbour(v.nbr[e:])
		at := e
		e += 2 + int32(len(others))
		if len(skip) > 0 && skip[0] == at {
			skip = skip[1:]
			continue
		}
		if sp, ok := rf.split(others); ok {
			rf.add(sp, int32(row), others, from, -mult)
			rf.add(sp, int32(row), others, to, mult)
		}
	}
}

// tally adds mult to the table for one column of weight ≥ 2, its rows
// row and others, in the current groups.
func (rf *refiner) tally(row int32, others []int32, mult int) {
	if sp, ok := rf.split(others); ok {
		rf.add(sp, row, others, rf.groupOf[row], mult)
	}
}

// split is how a column's rows but one lie in the groups: c1 rows in g1
// and c2 in g2 (c2 = 0: all in g1), y1 and y2 the last row seen in each.
type split struct {
	g1, g2, c1, c2 int
	y1, y2         int32
}

// split reads the groups of others; ok is false when they span three or
// more, so no row of the column can count it wherever the last row is.
func (rf *refiner) split(others []int32) (sp split, ok bool) {
	sp.g1, sp.g2 = rf.groupOf[others[0]], -1
	for _, x := range others {
		switch g := rf.groupOf[x]; {
		case g == sp.g1:
			sp.c1, sp.y1 = sp.c1+1, x
		case sp.g2 < 0 || g == sp.g2:
			sp.g2, sp.c2, sp.y2 = g, sp.c2+1, x
		default:
			return sp, false
		}
	}
	return sp, true
}

// add adds mult to the table cells that count a column whose rows are
// row, in group X, and others, split as sp. A row's cell of group g
// counts the column when every other row of it lies in g: so with all
// rows in one group each counts it there, with two groups a row alone in
// its group counts it in the other, and with three none does.
func (rf *refiner) add(sp split, row int32, others []int32, X, mult int) {
	K := rf.K
	switch {
	case sp.c2 == 0 && X == sp.g1:
		rf.confined[int(row)*K+X] += mult
		for _, x := range others {
			rf.confined[int(x)*K+X] += mult
		}
	case sp.c2 == 0:
		rf.confined[int(row)*K+sp.g1] += mult
		if sp.c1 == 1 {
			rf.confined[int(sp.y1)*K+X] += mult
		}
	case X == sp.g1:
		if sp.c2 == 1 {
			rf.confined[int(sp.y2)*K+X] += mult
		}
	case X == sp.g2:
		if sp.c1 == 1 {
			rf.confined[int(sp.y1)*K+X] += mult
		}
	}
}
