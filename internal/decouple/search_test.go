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
		v := newSearchView(randomDEMLike(rng, m, 5+rng.IntN(80), 1+rng.IntN(4)))
		rows := rng.Perm(m)
		groups := make([][]int, K)
		for g := range groups {
			groups[g] = append([]int(nil), rows[g*m/K:(g+1)*m/K]...)
		}
		before := clonePartition(groups)
		passes, seed := 1+rng.IntN(4), rng.Uint64()
		refined := refinePartition(v, groups, passes, seed)

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
		if again := refinePartition(v, groups, passes, seed); !samePartition(refined, again) {
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

// TestRefinePartitionAllocsIndependentOfTrials: 8·m swap trials per pass
// used to build a set each; now a call allocates its fixed scratch, one
// row order per pass and the K output groups, however many trials run.
func TestRefinePartitionAllocsIndependentOfTrials(t *testing.T) {
	v := newSearchView(bbCircuit(0)(t)) // 36 × 360
	const K, passes = 4, 6
	groups := make([][]int, K)
	for r := 0; r < v.m; r++ {
		groups[r%K] = append(groups[r%K], r)
	}
	trials := 8 * v.m // per pass, before same-group skips
	allocs := testing.AllocsPerRun(10, func() { refinePartition(v, groups, passes, 9) })
	if limit := float64(K + passes + 10); allocs > limit {
		t.Errorf("refinePartition made %.0f allocations for up to %d trials; want ≤ %.0f", allocs, trials*passes, limit)
	}
	t.Logf("%.0f allocations, %d trials per pass", allocs, trials)
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
	return newSearchView(D), groups
}

// checkTrialGains walks a refiner through every cross-group pair of rows,
// comparing each trial's gain with a recount of the interior columns
// after the swap, and accepts every third trial whatever its gain so the
// table is also checked after updates refinePartition would not make.
func checkTrialGains(t *testing.T, v *searchView, groups [][]int) {
	rf := newRefiner(v, groups)
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
// agrees with counting interior columns before and after the swap.
func TestRefineTrialGainMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewPCG(152, 153))
	for i := 0; i < 150; i++ {
		v, groups := trialCase(rng.Uint64(), uint8(rng.IntN(256)), uint8(rng.IntN(256)), uint8(rng.IntN(256)))
		checkTrialGains(t, v, groups)
	}
	v := newSearchView(bbCircuit(0)(t))
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
		searchKs(order, func(K int) int {
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
	v := newSearchView(D)
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

// TestSearchKsOrderAndStop drives the concurrent K search with a
// synthetic per-K function: everything before the first success has been
// searched, the first success in list order is the same for every
// GOMAXPROCS, and a lone worker starts nothing after it (with several,
// the Ks already handed out still finish, so only a floor holds).
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
			var started atomic.Int64
			results := searchKs(tries, func(K int) *Decoupling {
				started.Add(1)
				if K == 12 {
					return nil // a K with no valid structure
				}
				return marker[K]
			}, success)
			first := -1
			for i, d := range results {
				if success(d) {
					first = i
					break
				}
				if d != marker[tries[i]] && tries[i] != 12 {
					t.Fatalf("procs %d: K=%d before the first success was not searched", procs, tries[i])
				}
			}
			if first != 4 {
				t.Fatalf("procs %d: first success at index %d, want 4 (K=8)", procs, first)
			}
			if n := int(started.Load()); n < first+1 || (procs == 1 && n != first+1) {
				t.Fatalf("procs %d: %d searches started, first success at index %d", procs, n, first)
			}
		}
	}
}

// TestDecoupleReturnsValidatedFallback: when no K clears the coverage
// bar the best-coverage fallback is returned, and it too has passed
// validation.
func TestDecoupleReturnsValidatedFallback(t *testing.T) {
	D := bbCircuit(0)(t)
	dec, err := Decouple(D, Options{Seed: 3, MinCoverage: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if cover := float64(dec.K*dec.ND) / float64(dec.N); cover >= 0.99 {
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
			if got, want := affinityPartition(v, K), rescanAffinityPartition(v, K); !samePartition(got, want) {
				t.Fatalf("%s K=%d: partition %v, want %v", name, K, got, want)
			}
		}
	}
	rng := rand.New(rand.NewPCG(161, 162))
	for trial := 0; trial < 60; trial++ {
		m := 6 * (1 + rng.IntN(8))
		check("random", newSearchView(randomDEMLike(rng, m, 2+rng.IntN(120), 1+rng.IntN(6))))
	}
	check("BB72", newSearchView(bbCircuit(0)(t)))
	check("BB144", newSearchView(bbCircuit(3)(t)))
}
