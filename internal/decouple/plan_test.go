package decouple

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"vegapunk/internal/gf2"
)

func serialized(t testing.TB, dec *Decoupling) []byte {
	if dec == nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := dec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func acceptAny(int) bool { return true }

// checkPlanFirstEqualsEager compares, for one K, the plan-first
// selection with the eager reference, with and without a coverage bar.
func checkPlanFirstEqualsEager(t *testing.T, D *gf2.Dense, K int, opts Options) {
	t.Helper()
	v := newSearchView(D, opts.Seed)
	want := eagerBestForK(v, K, opts)

	// Every plan knows the coverage its artifact will have.
	for i, p := range planK(v, K, new(scratch)).plans {
		dec, err := p.build(v)
		if err != nil {
			t.Fatalf("K=%d plan %d: %v", K, i, err)
		}
		if p.blockCols() != dec.K*dec.ND {
			t.Fatalf("K=%d plan %d: planned %d block columns, built %d", K, i, p.blockCols(), dec.K*dec.ND)
		}
	}

	if got := planK(v, K, new(scratch)).best(acceptAny); !bytes.Equal(serialized(t, got), serialized(t, want)) {
		t.Fatalf("K=%d: plan-first selection differs from the eager one", K)
	}

	// Behind a bar: the same artifact if it clears it; otherwise nothing,
	// nothing built, and the fallback selection still finds it.
	success := func(blockCols int) bool { return covers(blockCols, v.n, 0.5) }
	c := planK(v, K, new(scratch))
	got := c.best(success)
	if want != nil && success(want.K*want.ND) {
		if !bytes.Equal(serialized(t, got), serialized(t, want)) {
			t.Fatalf("K=%d: successful winner differs from the eager one", K)
		}
		return
	}
	if got != nil {
		t.Fatalf("K=%d: returned a candidate below the coverage bar", K)
	}
	for i, p := range c.plans {
		if p.dec != nil && !success(p.blockCols()) {
			t.Fatalf("K=%d plan %d: built although below the bar", K, i)
		}
	}
	if got := c.best(acceptAny); !bytes.Equal(serialized(t, got), serialized(t, want)) {
		t.Fatalf("K=%d: fallback selection differs from the eager one", K)
	}
}

// TestPlanFirstEqualsEager: ranking unbuilt plans and building only the
// top level chooses the artifact that building everything chose.
func TestPlanFirstEqualsEager(t *testing.T) {
	for _, gc := range goldenCases[:3] { // BB72, BB144, HP162
		D := gc.matrix(t)
		S := D.MaxColWeight()
		for _, K := range candidateKs(D.Rows(), S) {
			checkPlanFirstEqualsEager(t, D, K, gc.opts)
		}
	}
	rng := rand.New(rand.NewPCG(1501, 1502))
	for trial := 0; trial < 40; trial++ {
		m := 6 * (1 + rng.IntN(5))
		D := randomDEMLike(rng, m, 2+rng.IntN(60), 1+m/4)
		for _, K := range candidateKs(m, 1) {
			checkPlanFirstEqualsEager(t, D, K, Options{Seed: uint64(trial)})
		}
	}
}

// TestBestReplacesFailedWinner: the plan that would win is the one that
// gets built and validated; if either step fails it is dropped and the
// next best takes its place, so nothing unvalidated is ever returned.
func TestBestReplacesFailedWinner(t *testing.T) {
	D := hpPhenomenological(t)
	v := newSearchView(D, 0)
	plans := func() (wide, narrow *plan) {
		wide, err := planPartition(v, contiguous(v.m, 3))
		if err != nil {
			t.Fatal(err)
		}
		narrow, err = planPartition(v, contiguous(v.m, 9))
		if err != nil {
			t.Fatal(err)
		}
		if wide.blockCols() <= narrow.blockCols() {
			t.Fatalf("K=3 plans %d block columns, K=9 %d: want more at K=3", wide.blockCols(), narrow.blockCols())
		}
		return wide, narrow
	}

	wide, narrow := plans()
	c := &candidates{v: v, plans: []*plan{narrow, wide}}
	if got := c.best(acceptAny); got == nil || got.K*got.ND != wide.blockCols() {
		t.Fatal("valid candidate with the larger coverage not chosen")
	}
	if narrow.dec != nil {
		t.Fatal("the losing plan was built")
	}

	// Tampered artifact: T·D·P no longer matches the block form.
	wide, narrow = plans()
	dec, err := wide.build(v)
	if err != nil {
		t.Fatal(err)
	}
	dec.T.Flip(0, 1)
	if dec.Validate(D) == nil {
		t.Fatal("tampering not detected")
	}
	wide.dec = dec
	c = &candidates{v: v, plans: []*plan{narrow, wide}}
	if got := c.best(acceptAny); got == nil || got.K*got.ND != narrow.blockCols() || got.Validate(D) != nil {
		t.Fatal("invalid winner not replaced by the next best candidate")
	}
	if got := c.best(acceptAny); got != nil {
		t.Fatal("a candidate was left after both were consumed")
	}

	// Rank-deficient group: under rows {0,1} | {2,3} the first group has
	// five interior columns, all e0+e1, so rank 1 < m_D = 2. The count
	// ranks that partition first (2·min(5, 3) = 6 block columns); its
	// build finds the rank short, and {0,2} | {1,3} (2·2 = 4) wins.
	D = gf2.FromRows([][]int{
		{1, 1, 1, 1, 1, 0, 0, 0, 1, 0},
		{1, 1, 1, 1, 1, 0, 0, 0, 0, 1},
		{0, 0, 0, 0, 0, 1, 0, 1, 1, 0},
		{0, 0, 0, 0, 0, 0, 1, 1, 0, 1},
	})
	v = newSearchView(D, 0)
	deficient, err := planPartition(v, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := planPartition(v, [][]int{{0, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if deficient.blockCols() != 6 || full.blockCols() != 4 {
		t.Fatalf("planned %d and %d block columns, want 6 and 4", deficient.blockCols(), full.blockCols())
	}
	c = &candidates{v: v, plans: []*plan{deficient, full}}
	if got := c.best(acceptAny); got == nil || got.K*got.ND != 4 || got.Validate(D) != nil {
		t.Fatal("rank-deficient partition plan not replaced by the next best")
	}
	if len(c.plans) != 0 || deficient.dec != nil {
		t.Fatal("rank-deficient partition plan kept")
	}
	if _, err := deficient.build(v); err == nil {
		t.Fatal("rank-deficient partition built")
	}
	if got := (&candidates{v: v, plans: []*plan{deficient}}).best(acceptAny); got != nil {
		t.Fatal("sole candidate returned although its build fails")
	}
}

// TestCoversBoundary: one predicate decides coverage for plans and
// artifacts alike, by dividing the integer column counts. A threshold
// pre-multiplied by n disagrees with it on the marked rows, which is why
// the plan cut-off may not use one.
func TestCoversBoundary(t *testing.T) {
	for _, tc := range []struct {
		blockCols, n int
		minCover     float64
		want         bool
	}{
		{180, 360, 0.5, true}, // exactly the default bar
		{179, 360, 0.5, false},
		{364, 720, 0.5, true}, // BB144's K=4 winner, 0.506
		{342, 720, 0.5, false},
		{108, 360, 0.3, true}, // 0.3 is not exact in binary
		{107, 360, 0.3, false},
		{3, 10, 0.3, true},
		{55, 100, 0.55, true}, // 0.55·100 > 55 in float64
		{7, 25, 0.28, true},   // 0.28·25 > 7 in float64
		{54, 100, 0.55, false},
		{360, 360, 1, true},
		{359, 360, 0.99, true},
		{356, 360, 0.99, false},
	} {
		if got := covers(tc.blockCols, tc.n, tc.minCover); got != tc.want {
			t.Errorf("covers(%d, %d, %v) = %v, want %v", tc.blockCols, tc.n, tc.minCover, got, tc.want)
		}
	}
}

// TestDecoupleDoesNotBuildLosers: BB72's K = 12, 9, 6 and 4 fall short
// of the coverage bar before K = 3 clears it, and BB144's K = 24, 18,
// 12, 9, 8 and 6 before K = 4 does. Only the winning K may be
// materialised (T, T·D, the sparse blocks, the pivots) — not a losing K
// before it, and not a K after it that an idle goroutine had already
// planned — at every GOMAXPROCS. Allocations stay near the ~330 (BB72)
// and ~450 (BB144) the search needs.
func TestDecoupleDoesNotBuildLosers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var mu sync.Mutex
	built := map[int]int{}
	buildHook = func(K int) {
		mu.Lock()
		built[K]++
		mu.Unlock()
	}
	defer func() { buildHook = nil }()
	for _, tc := range []struct {
		name  string
		idx   int
		wantK int
		bound float64
	}{{"BB72", 0, 3, 500}, {"BB144", 3, 4, 650}} {
		D := bbCircuit(tc.idx)(t)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < 20; rep++ {
				clear(built)
				dec, err := Decouple(D, Options{Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				if dec.K != tc.wantK || len(built) != 1 || built[tc.wantK] == 0 {
					t.Fatalf("%s GOMAXPROCS=%d: K=%d won, built %v; want only K=%d built", tc.name, procs, dec.K, built, tc.wantK)
				}
			}
		}
		// AllocsPerRun measures at GOMAXPROCS 1.
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Decouple(D, Options{Seed: 3}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= tc.bound {
			t.Errorf("%s: Decouple made %.0f allocations, want < %.0f", tc.name, allocs, tc.bound)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
	}
}
