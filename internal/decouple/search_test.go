package decouple

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vegapunk/internal/gf2"
)

// interiorColumns counts the columns of v confined to one group.
func interiorColumns(v *searchView, groups [][]int) int {
	groupOf := make([]int, v.m)
	for g, rows := range groups {
		for _, r := range rows {
			groupOf[r] = g
		}
	}
	c := 0
	for j := 0; j < v.n; j++ {
		if sup := v.cols.ColSpan(j); len(sup) > 0 && uniformGroup(sup, groupOf) >= 0 {
			c++
		}
	}
	return c
}

// TestRefinePartitionProperty: refinement is a sequence of accepted
// swaps, so it must return a partition of the same rows into groups of
// the same sizes, never with fewer interior columns, leave its input
// alone, and be a pure function of its arguments.
func TestRefinePartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(141, 142))
	for trial := 0; trial < 60; trial++ {
		K := 2 + rng.IntN(4)
		m := K * (2 + rng.IntN(6))
		v := newSearchView(randomDEMLike(rng, m, 5+rng.IntN(80), 1+rng.IntN(4)), 0)
		rows := rng.Perm(m)
		groups := make([][]int, K)
		for g := range groups {
			groups[g] = append([]int(nil), rows[g*m/K:(g+1)*m/K]...)
		}
		before := clonePartition(groups)
		passes, seed := 1+rng.IntN(4), rng.Uint64()
		refined := refinePartition(v, groups, newTrials(m, passes, seed), new(scratch))

		if !samePartition(groups, before) {
			t.Fatalf("trial %d: input partition modified", trial)
		}
		seen := make([]bool, m)
		for g, rs := range refined {
			if len(rs) != len(groups[g]) {
				t.Fatalf("trial %d: group %d size %d → %d", trial, g, len(groups[g]), len(rs))
			}
			for _, r := range rs {
				if seen[r] {
					t.Fatalf("trial %d: row %d twice", trial, r)
				}
				seen[r] = true
			}
		}
		if a, b := interiorColumns(v, groups), interiorColumns(v, refined); b < a {
			t.Fatalf("trial %d: interior columns %d → %d", trial, a, b)
		}
		if again := refinePartition(v, groups, newTrials(m, passes, seed), new(scratch)); !samePartition(refined, again) {
			t.Fatalf("trial %d: same arguments, different partition", trial)
		}
	}
}

func clonePartition(p [][]int) [][]int {
	out := make([][]int, len(p))
	for i, g := range p {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// TestRefinePartitionAllocsIndependentOfTrials: the swap trials are drawn
// once per Decouple call and the refiner's table lives in the scratch,
// so a refinement with warm scratch allocates nothing however many
// trials it runs (its result, too, is carved from the scratch).
func TestRefinePartitionAllocsIndependentOfTrials(t *testing.T) {
	v := newSearchView(bbCircuit(0)(t), 0) // 36 × 360
	const K, passes = 4, 6
	groups := make([][]int, K)
	for r := 0; r < v.m; r++ {
		groups[r%K] = append(groups[r%K], r)
	}
	trials := newTrials(v.m, passes, 9)
	sc := new(scratch)
	allocs := testing.AllocsPerRun(10, func() {
		sc.rows, sc.heads = sc.rows[:0], sc.heads[:0]
		refinePartition(v, groups, trials, sc)
	})
	if allocs != 0 {
		t.Errorf("refinePartition made %.0f allocations for up to %d trials; want 0", allocs, trialsPerRow*v.m*passes)
	}
}

// TestNewTrialsMatchesDraws: the precomputed trial sequence is the one
// the refinement used to draw as it went: per pass a row order from
// rng.Perm, then trialsPerRow partners per row from rng.IntN.
func TestNewTrialsMatchesDraws(t *testing.T) {
	for _, tc := range []struct {
		m, passes int
		seed      uint64
	}{{1, 1, 0}, {36, 2, 3}, {72, 2, 1234}, {7, 5, 99}} {
		rng := rand.New(rand.NewPCG(tc.seed, 0x9e3779b97f4a7c15))
		var want []int32
		for pass := 0; pass < tc.passes; pass++ {
			for _, r := range rng.Perm(tc.m) {
				want = append(want, int32(r))
				for trial := 0; trial < 8; trial++ {
					want = append(want, int32(rng.IntN(tc.m)))
				}
			}
		}
		if got := newTrials(tc.m, tc.passes, tc.seed); !slices.Equal(got, want) {
			t.Errorf("m=%d passes=%d seed=%d: trials differ from the drawn sequence", tc.m, tc.passes, tc.seed)
		}
	}
}

// trialCase is a random matrix and partition for the swap-trial checks:
// column weights 1–6 (repeated rows may cancel down to zero columns),
// duplicated and explicit zero columns, K from 2 to 6.
func trialCase(seed uint64, kRaw, mdRaw, colsRaw uint8) (*searchView, [][]int) {
	rng := rand.New(rand.NewPCG(seed, 151))
	K := 2 + int(kRaw)%5
	m := K * (1 + int(mdRaw)%5)
	n := 1 + int(colsRaw)%90
	D := gf2.NewDense(m, n)
	for j := 0; j < n; j++ {
		switch pick := rng.IntN(10); {
		case pick == 0: // zero column
		case pick < 4 && j > 0: // duplicate of an earlier column
			src := rng.IntN(j)
			for r := 0; r < m; r++ {
				D.Set(r, j, D.At(r, src))
			}
		default:
			for w := 1 + rng.IntN(6); w > 0; w-- {
				D.Flip(rng.IntN(m), j)
			}
		}
	}
	rows := rng.Perm(m)
	groups := make([][]int, K)
	for g := range groups {
		groups[g] = rows[g*m/K : (g+1)*m/K]
	}
	return newSearchView(D, 0), groups
}

// checkTrialGains walks a refiner through every cross-group pair of rows,
// comparing each trial's gain with a recount of the interior columns
// after the swap and the accept test with gain > 0, and accepts every
// third trial whatever its gain so the table is also checked after
// updates refinePartition would not make.
func checkTrialGains(t *testing.T, v *searchView, groups [][]int) {
	rf := new(refiner)
	rf.reset(v, groups)
	partition := func() [][]int {
		p := make([][]int, len(groups))
		for r, g := range rf.groupOf {
			p[g] = append(p[g], r)
		}
		return p
	}
	trial := 0
	for r := 0; r < v.m; r++ {
		for s := 0; s < v.m; s++ {
			if rf.groupOf[r] == rf.groupOf[s] {
				continue
			}
			before := interiorColumns(v, partition())
			got := rf.gain(r, s)
			if rf.accepts(r, s) != (got > 0) {
				t.Fatalf("trial %d: swapping rows %d and %d gains %d, accepted %v", trial, r, s, got, rf.accepts(r, s))
			}
			rf.swap(r, s)
			if want := interiorColumns(v, partition()) - before; got != want {
				t.Fatalf("trial %d: swapping rows %d and %d gains %d interior columns, evaluated as %d", trial, r, s, want, got)
			}
			if trial++; trial%3 != 0 {
				rf.swap(r, s) // rejected: back to where it was
			}
		}
	}
}

// TestRefineTrialGainMatchesRecount: the table-driven trial evaluation
// agrees with counting interior columns before and after the swap, and
// the accept test, which skips the shared-column correction when the
// table cells promise no gain, accepts exactly the trials that gain.
func TestRefineTrialGainMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewPCG(152, 153))
	for i := 0; i < 150; i++ {
		v, groups := trialCase(rng.Uint64(), uint8(rng.IntN(256)), uint8(rng.IntN(256)), uint8(rng.IntN(256)))
		checkTrialGains(t, v, groups)
	}
	v := newSearchView(bbCircuit(0)(t), 0)
	groups := make([][]int, 4)
	for r := 0; r < v.m; r++ {
		groups[r%4] = append(groups[r%4], r)
	}
	checkTrialGains(t, v, groups)
}

func FuzzRefineTrialGain(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(20))  // K=2, two rows each
	f.Add(uint64(2), uint8(4), uint8(4), uint8(89))  // K=6, m=30, 90 columns
	f.Add(uint64(3), uint8(2), uint8(0), uint8(40))  // one row per group: every column of weight ≥ 2 crosses
	f.Add(uint64(4), uint8(1), uint8(2), uint8(0))   // a single column
	f.Add(uint64(5), uint8(3), uint8(3), uint8(255)) // K=5, m=20
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, mdRaw, colsRaw uint8) {
		v, groups := trialCase(seed, kRaw, mdRaw, colsRaw)
		checkTrialGains(t, v, groups)
	})
}

// TestHintedKSearchedOnce: exp.Benchmarks() hints K = 12 and 6 for the BB
// codes; both are also rule Ks and both fall short, so each used to be
// searched at its hint position and again at its rule position. Every K
// is searched once, hints first, and the rule's order is otherwise kept.
func TestHintedKSearchedOnce(t *testing.T) {
	for _, tc := range []struct {
		m, S  int
		hints []int
		want  []int
	}{
		{72, 3, []int{12, 6}, []int{12, 6, 24, 18, 9, 8, 4, 3, 2}}, // BB144
		{36, 3, []int{12, 6}, []int{12, 6, 9, 4, 3, 2}},            // BB72
		{36, 3, []int{6, 6, 5, 1, 72}, []int{6, 12, 9, 4, 3, 2}},   // repeated and unusable hints
		{81, 9, []int{9}, []int{9, 3}},                             // HP162
		{36, 3, nil, []int{12, 9, 6, 4, 3, 2}},
	} {
		order := searchOrder(tc.m, tc.hints, candidateKs(tc.m, tc.S))
		if !slices.Equal(order, tc.want) {
			t.Errorf("m=%d hints %v: search order %v, want %v", tc.m, tc.hints, order, tc.want)
		}
		var mu sync.Mutex
		searches := map[int]int{}
		searchKs(order, func(K int, _ *scratch) int {
			mu.Lock()
			defer mu.Unlock()
			searches[K]++
			return K
		}, func(int) bool { return false })
		for _, K := range candidateKs(tc.m, tc.S) {
			if searches[K] != 1 {
				t.Errorf("m=%d hints %v: K=%d searched %d times", tc.m, tc.hints, K, searches[K])
			}
		}
	}
}

// TestBestValidDropsInvalidWinner: the candidate that would win is the
// one that gets validated; if it fails it is dropped and the next best
// takes its place, so nothing unvalidated is ever returned.
func TestBestValidDropsInvalidWinner(t *testing.T) {
	D := hpPhenomenological(t)
	v := newSearchView(D, 0)
	wide, err := synthesize(v, contiguous(v.m, 3))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := synthesize(v, contiguous(v.m, 9))
	if err != nil {
		t.Fatal(err)
	}
	if wide.K*wide.ND <= narrow.K*narrow.ND {
		t.Fatalf("K=3 covers %d columns, K=9 %d: want more at K=3", wide.K*wide.ND, narrow.K*narrow.ND)
	}
	if got := bestValid(D, []*Decoupling{narrow, wide}); got != wide {
		t.Fatal("valid candidate with the larger coverage not chosen")
	}
	wide.T.Flip(0, 1) // T·D·P no longer matches the block form
	if wide.Validate(D) == nil {
		t.Fatal("tampering not detected")
	}
	if got := bestValid(D, []*Decoupling{narrow, wide}); got != narrow {
		t.Fatal("invalid winner not replaced by the next best candidate")
	}
	if got := bestValid(D, []*Decoupling{wide}); got != nil {
		t.Fatal("invalid sole candidate returned")
	}
}

// TestSearchKsOrderAndStop drives the concurrent K search with synthetic
// plan and resolve functions: resolution runs in list order, one index
// at a time, and stops at the first success; every index before it has
// been planned and resolved, none after it is resolved, and the winner is
// the same for every GOMAXPROCS. A lone worker also plans nothing after
// it (with several, the Ks already handed out still finish planning).
func TestSearchKsOrderAndStop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tries := []int{24, 18, 12, 9, 8, 6, 4, 3, 2}
	marker := map[int]*Decoupling{}
	for _, K := range tries {
		marker[K] = &Decoupling{K: K}
	}
	success := func(d *Decoupling) bool { return d != nil && d.K <= 8 && d.K != 6 }
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 50; rep++ {
			var (
				planned  atomic.Int64
				mu       sync.Mutex
				resolved []int
				inside   atomic.Int64
			)
			results, won := searchKs(tries, func(K int, _ *scratch) *Decoupling {
				planned.Add(1)
				if K == 12 {
					return nil // a K with no valid structure
				}
				return marker[K]
			}, func(d *Decoupling) bool {
				if inside.Add(1) != 1 {
					t.Error("two resolutions ran at once")
				}
				defer inside.Add(-1)
				mu.Lock()
				K := 12
				if d != nil {
					K = d.K
				}
				resolved = append(resolved, K)
				mu.Unlock()
				return success(d)
			})
			if won != 4 || results[won] != marker[8] {
				t.Fatalf("procs %d: won at index %d, want 4 (K=8)", procs, won)
			}
			if !slices.Equal(resolved, tries[:won+1]) {
				t.Fatalf("procs %d: resolved %v, want %v", procs, resolved, tries[:won+1])
			}
			for i, d := range results[:won] {
				if d != marker[tries[i]] && tries[i] != 12 {
					t.Fatalf("procs %d: K=%d before the winner was not planned", procs, tries[i])
				}
			}
			if n := int(planned.Load()); n < won+1 || (procs == 1 && n != won+1) {
				t.Fatalf("procs %d: %d plans ran, winner at index %d", procs, n, won)
			}
		}
	}
	// No success: everything is planned and resolved, in order.
	var resolved []int
	results, won := searchKs(tries, func(K int, _ *scratch) int { return K }, func(K int) bool {
		resolved = append(resolved, K)
		return false
	})
	if won != -1 || !slices.Equal(results, tries) || !slices.Equal(resolved, tries) {
		t.Fatalf("no success: won %d, results %v, resolved %v", won, results, resolved)
	}
}

// TestDecoupleReturnsValidatedFallback: when no K clears the coverage
// bar the best-coverage fallback is returned, and it too has passed
// validation. The fixture has rule Ks that the coverage bound skips, so
// the fallback also plans those.
func TestDecoupleReturnsValidatedFallback(t *testing.T) {
	D := crossing(36, 180, 3, 5)(t)
	v := newSearchView(D, 3)
	skipped := 0
	for _, K := range candidateKs(v.m, v.cols.MaxColWeight()) {
		if !covers(v.coverageBound(v.m/K), v.n, minCoverage) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("the coverage bound skips no K: the fixture misses the skipped-K fallback")
	}
	dec, err := Decouple(D, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cover := float64(dec.K*dec.ND) / float64(dec.N); cover >= minCoverage {
		t.Fatalf("coverage %.2f: not the fallback path", cover)
	}
	if err := dec.Validate(D); err != nil {
		t.Fatal(err)
	}
}

// TestAffinityPartitionMatchesRescan: seeding from the running affinity
// mass picks the rows the per-group rescan picked, for every K dividing
// m, on random DEM-like matrices and on the circuit-level BB72/BB144.
func TestAffinityPartitionMatchesRescan(t *testing.T) {
	check := func(name string, v *searchView) {
		for K := 1; K <= v.m; K++ {
			if v.m%K != 0 {
				continue
			}
			if got, want := affinityPartition(v, K, new(scratch)), rescanAffinityPartition(v, K); !samePartition(got, want) {
				t.Fatalf("%s K=%d: partition %v, want %v", name, K, got, want)
			}
		}
	}
	rng := rand.New(rand.NewPCG(161, 162))
	for trial := 0; trial < 60; trial++ {
		m := 6 * (1 + rng.IntN(8))
		check("random", newSearchView(randomDEMLike(rng, m, 2+rng.IntN(120), 1+rng.IntN(6)), 0))
	}
	check("BB72", newSearchView(bbCircuit(0)(t), 0))
	check("BB144", newSearchView(bbCircuit(3)(t), 0))
}
