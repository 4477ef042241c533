package decouple

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// checkBoundAdmissible checks the coverage bound against every partition
// the search would plan for every K dividing m: the start partitions,
// their refinements, and, for block-diagonal matrices, the block
// partition itself. No partition into groups of s rows may have more
// interior columns than coverageBound(s), nor may its plan cover more.
func checkBoundAdmissible(t *testing.T, name string, D *gf2.Dense, seed uint64) {
	t.Helper()
	v := newSearchView(D, seed)
	sc := new(scratch)
	for K := 1; K <= v.m; K++ {
		if v.m%K != 0 {
			continue
		}
		bound := v.coverageBound(v.m / K)
		for i, groups := range candidatePartitions(v, K, sc) {
			if c := interiorColumns(v, groups); c > bound {
				t.Fatalf("%s K=%d partition %d: %d interior columns, bound %d", name, K, i, c, bound)
			}
			if p, err := planPartition(v, groups); err == nil && p.blockCols() > bound {
				t.Fatalf("%s K=%d partition %d: plan covers %d columns, bound %d", name, K, i, p.blockCols(), bound)
			}
		}
	}
}

// blockDiagonal is a random m × n matrix whose every column lies inside
// one of the m/s runs of s consecutive rows: the contiguous partition
// makes every nonzero column interior, and each row's shares all go to
// the s−1 other rows of its run, so the bound is exact there.
func blockDiagonal(rng *rand.Rand, m, s, n, maxColW int) *gf2.Dense {
	D := gf2.NewDense(m, n)
	for j := 0; j < n; j++ {
		g := rng.IntN(m / s)
		for w := 1 + rng.IntN(maxColW); w > 0; w-- {
			D.Set(g*s+rng.IntN(s), j, true)
		}
		if rng.IntN(5) == 0 && j > 0 { // a duplicate, for multiplicity
			src := rng.IntN(j)
			for r := 0; r < m; r++ {
				D.Set(r, j, D.At(r, src))
			}
		}
	}
	return D
}

// checkBoundExact checks that on a block-diagonal matrix the bound at
// the block size equals the contiguous partition's interior count.
func checkBoundExact(t *testing.T, D *gf2.Dense, s int) {
	t.Helper()
	v := newSearchView(D, 0)
	groups := make([][]int, v.m/s)
	for r := 0; r < v.m; r++ {
		groups[r/s] = append(groups[r/s], r)
	}
	if c, b := interiorColumns(v, groups), v.coverageBound(s); c != b {
		t.Fatalf("%d×%d block-diagonal in runs of %d: %d interior columns, bound %d", v.m, v.n, s, c, b)
	}
}

// randomBoundCase draws one random matrix for the admissibility checks:
// DEM-like (an identity plus random columns of weight up to 6) or block
// diagonal, whose bound is tight.
func randomBoundCase(rng *rand.Rand) (D *gf2.Dense, blockSize int) {
	m := 1 + rng.IntN(24)
	if rng.IntN(3) == 0 {
		var divisors []int
		for s := 1; s <= m; s++ {
			if m%s == 0 {
				divisors = append(divisors, s)
			}
		}
		s := divisors[rng.IntN(len(divisors))]
		return blockDiagonal(rng, m, s, 1+rng.IntN(60), 1+rng.IntN(6)), s
	}
	return randomDEMLike(rng, m, rng.IntN(60), 1+rng.IntN(6)), 0
}

// TestCoverageBoundAdmissible: skipping a K whose bound falls short of
// minCoverage is safe only if no partition the search plans beats the
// bound. Checked on the twelve Table 2 codes under their Table 2 model
// and code capacity, the HP162 4-round window, Fig12's Quick space-time
// batches, and 2 000 random matrices, a third of them block diagonal,
// where the bound must also be exact.
func TestCoverageBoundAdmissible(t *testing.T) {
	var named []struct {
		name string
		D    *gf2.Dense
	}
	add := func(name string, D *gf2.Dense) {
		named = append(named, struct {
			name string
			D    *gf2.Dense
		}{name, D})
	}
	for i, p := range code.BBRegistry {
		c, err := code.NewBBByIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		add(p.Name+" circuit", dem.CircuitLevel(c, 0.001).CheckMatrix())
		add(p.Name+" code capacity", dem.CodeCapacity(c, 0.001).CheckMatrix())
		if i < 3 && !testing.Short() { // Fig12's Quick batches: 3 rounds × 6
			add(p.Name+" space-time 18", dem.SpaceTime(dem.CircuitLevel(c, 0.003), 18).CheckMatrix())
		}
	}
	for i, p := range code.HPRegistry {
		c, err := code.NewHPByIndex(i)
		if err != nil {
			t.Fatal(err)
		}
		add(p.Name+" phenomenological", dem.Phenomenological(c, 0.001, 0.001).CheckMatrix())
		add(p.Name+" code capacity", dem.CodeCapacity(c, 0.001).CheckMatrix())
	}
	add("HP162 window 4", hpWindow4(t))
	for _, nd := range named {
		checkBoundAdmissible(t, nd.name, nd.D, 1234)
	}

	rng := rand.New(rand.NewPCG(191, 192))
	for trial := 0; trial < 2000; trial++ {
		D, s := randomBoundCase(rng)
		checkBoundAdmissible(t, fmt.Sprintf("random %d", trial), D, uint64(trial))
		if s > 0 {
			checkBoundExact(t, D, s)
		}
	}
}

func FuzzCoverageBound(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(2))
	f.Add(uint64(3))
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, 193))
		D, s := randomBoundCase(rng)
		checkBoundAdmissible(t, "fuzz", D, seed)
		if s > 0 {
			checkBoundExact(t, D, s)
		}
	})
}
