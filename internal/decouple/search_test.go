package decouple

import (
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
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
		if sup := v.cols.ColSupport(j); len(sup) > 0 && uniformGroup(sup, groupOf) >= 0 {
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

// TestBestValidDropsInvalidWinner: the candidate that would win is the
// one that gets validated; if it fails it is dropped and the next best
// takes its place, so nothing unvalidated is ever returned.
func TestBestValidDropsInvalidWinner(t *testing.T) {
	D := hpPhenomenological(t)
	v := newSearchView(D)
	wide, err := subspaceDecouple(v, 9)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := subspaceDecouple(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wide.K*wide.ND <= narrow.K*narrow.ND {
		wide, narrow = narrow, wide
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
