package decouple

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand/v2"
	"runtime"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// goldenCase is one (matrix, options) pair whose serialized artifact is
// pinned by digest. The digests were generated on the commit before the
// search was rebuilt around the shared view (PR 14's parent), so a
// passing test means the rewrite chose byte-identical artifacts.
type goldenCase struct {
	name   string
	matrix func(t testing.TB) *gf2.Dense
	opts   Options
	sha256 string
}

func bbCircuit(idx int) func(testing.TB) *gf2.Dense {
	return func(t testing.TB) *gf2.Dense {
		c, err := code.NewBBByIndex(idx)
		if err != nil {
			t.Fatal(err)
		}
		return dem.CircuitLevel(c, 0.003).CheckMatrix()
	}
}

func hpPhenomenological(t testing.TB) *gf2.Dense {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.Phenomenological(c, 0.001, 0.001).CheckMatrix()
}

var goldenCases = []goldenCase{
	{"BB72-circuit-seed3", bbCircuit(0), Options{Seed: 3},
		"5b8c4a7a3dd70a209292e5b08950da4e4fbeb7025b596e0ae2f6d9126d6930b9"},
	{"BB144-circuit-seed3", bbCircuit(3), Options{Seed: 3},
		"173610cc1e37a50b7e56defac8934ed75806f3927737e3603d42a37277fdf97b"},
	{"HP162-phenomenological", hpPhenomenological, Options{},
		"a02d80c0c7173578eb304c1af97b4dc98e4f8c3303cb2999a444f450d0401881"},
	{"HP162-hint9", hpPhenomenological, Options{HintKs: []int{9}, Seed: 1234},
		"8a297ecb038c369bfdf6ca6c20edcc9e67e97947cf9074eb1183420ffc3b6538"},
	// Generated on PR 15's parent (5c6b0b1): exp.Benchmarks()' BB hints,
	// both of which fall short and are also rule Ks.
	{"BB72-circuit-hints12-6", bbCircuit(0), Options{HintKs: []int{12, 6}, Seed: 1234},
		"5b8c4a7a3dd70a209292e5b08950da4e4fbeb7025b596e0ae2f6d9126d6930b9"},
	{"BB144-circuit-hints12-6", bbCircuit(3), Options{HintKs: []int{12, 6}, Seed: 1234},
		"60971c418b31c26adb0b1f8167e97e99d41aea9aae99e9fed7b83020fde211a4"},
	// Generated at ee6e294, while the coverage bar was still an option:
	// the best-coverage fallback when no K clears the bar. Both matrices
	// have Ks whose coverage bound skips them and Ks planned in vain.
	{"crossing36-fallback", crossing(36, 180, 3, 5), Options{Seed: 3},
		"07ed5fa9803837e78b65fcf0f00b0f45d9d8f1f962aabdcaf27d1756014881e3"},
	{"crossing72-fallback", crossing(72, 360, 3, 4), Options{Seed: 3},
		"ad549c4bf6dd9f85206a6d81d540c5cbf93bf06894b7c88fc868e8d51ddfc96e"},
	// Generated with the general-T subspace search still in place:
	// hpWindow4's 4-round HP162 window, decoupled at seeds 0 and 7.
	{"HP162-window4-seed0", hpWindow4, Options{},
		"f912390935e0d364dcdfeeeb33b1e2291b44c07a344caebc9aee8f6245349866"},
	{"HP162-window4-seed7", hpWindow4, Options{Seed: 7},
		"f912390935e0d364dcdfeeeb33b1e2291b44c07a344caebc9aee8f6245349866"},
}

// oneKCase pins the artifact decoupleK builds for one K.
type oneKCase struct {
	name   string
	matrix func(t testing.TB) *gf2.Dense
	K      int
	seed   uint64
	sha256 string
}

// oneKCases were recorded when Decouple could be pinned to one K: HP162
// at K = 3, and on BB72 two Ks the rule never tries (1 and m = 36) and
// one it passes over for K = 3 (2, which the BB72 fallback chose at a
// 0.99 bar).
var oneKCases = []oneKCase{
	{"HP162-force3", hpPhenomenological, 3, 5,
		"b095cbe5085bbb110f9262b2bb68237e1240f0241411a5d2ac5b0951ee3b85f6"},
	{"BB72-circuit-force1", bbCircuit(0), 1, 3,
		"fa98af84454a1d60e8c9480f3345feec7c0429e98438d5b7204247c81b6b9948"},
	{"BB72-circuit-force2", bbCircuit(0), 2, 3,
		"3d180cc47a805d02e00b47fb1c713b3378236c6e1421d30c9ef2b68f157e9063"},
	{"BB72-circuit-force36", bbCircuit(0), 36, 3,
		"9f0f12d89c9dda4510ee2398afb8e4116801b74bbc9a4ce558fe17f9e328421e"},
}

// decoupleK plans and builds one K the way Decouple does when K is its
// only candidate: planK, then the best of every plan with no coverage
// bar. It returns nil when no partition into K blocks validates.
func decoupleK(D *gf2.Dense, K int, seed uint64) *Decoupling {
	return planK(newSearchView(D, seed), K, new(scratch)).best(acceptAny)
}

// crossing is m detectors, each with one weight-1 column, plus n−m
// columns on w distinct random rows: too many crossing columns for any
// K's blocks to absorb half of them, so Decouple falls back.
func crossing(m, n, w int, seed uint64) func(testing.TB) *gf2.Dense {
	return func(testing.TB) *gf2.Dense {
		rng := rand.New(rand.NewPCG(seed, 0))
		D := gf2.NewDense(m, n)
		for i := 0; i < m; i++ {
			D.Set(i, i, true)
		}
		for j := m; j < n; j++ {
			for _, r := range rng.Perm(m)[:w] {
				D.Set(r, j, true)
			}
		}
		return D
	}
}

// hpWindow4 is the space-time matrix of a 4-round window over HP162's
// phenomenological model at p = q = 0.003.
func hpWindow4(t testing.TB) *gf2.Dense {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.SpaceTime(dem.Phenomenological(c, 0.003, 0.003), 4).CheckMatrix()
}

func artifactBytes(t testing.TB, D *gf2.Dense, opts Options) []byte {
	dec, err := Decouple(D, opts)
	if err != nil {
		return []byte("error: " + err.Error())
	}
	var buf bytes.Buffer
	if _, err := dec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDecoupleGoldenDigests pins the exact bytes of the chosen artifact,
// and of the one-K builds.
func TestDecoupleGoldenDigests(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			got := digest(artifactBytes(t, gc.matrix(t), gc.opts))
			if got != gc.sha256 {
				t.Errorf("artifact digest %s, want %s", got, gc.sha256)
			}
		})
	}
	for _, oc := range oneKCases {
		t.Run(oc.name, func(t *testing.T) {
			D := oc.matrix(t)
			dec := decoupleK(D, oc.K, oc.seed)
			if dec == nil || dec.K != oc.K {
				t.Fatalf("no artifact with K = %d", oc.K)
			}
			if err := dec.Validate(D); err != nil {
				t.Fatal(err)
			}
			if got := digest(serialized(t, dec)); got != oc.sha256 {
				t.Errorf("artifact digest %s, want %s", got, oc.sha256)
			}
		})
	}
}

// goldenRandomDigest is the digest over the concatenated artifacts of 40
// random DEM-like matrices (several fall through to the best-coverage
// fallback or fail outright), same provenance as goldenCases.
const goldenRandomDigest = "7fef4dfdd4cce124d8ca15443bb9da2a6be1a22248259a2dff9fc4ae4ec99e10"

func TestDecoupleGoldenRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewPCG(1401, 1402))
	h := sha256.New()
	for trial := 0; trial < 40; trial++ {
		m := 6 * (1 + rng.IntN(5))
		D := randomDEMLike(rng, m, 2+rng.IntN(60), 1+m/4)
		h.Write(artifactBytes(t, D, Options{Seed: uint64(trial)}))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRandomDigest {
		t.Errorf("random-matrix digest %s, want %s", got, goldenRandomDigest)
	}
}

// TestDecoupleDeterministicAcrossGOMAXPROCS: the candidate K values are
// planned concurrently but resolved in K order, so neither the number
// of processors nor the schedule may change a byte of the artifact —
// on every golden case, the hinted, fallback (every K planned, the
// skipped ones last) and window ones included.
func TestDecoupleDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	reps := 20
	if testing.Short() {
		reps = 3
	}
	for _, gc := range goldenCases {
		D := gc.matrix(t)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			for rep := 0; rep < reps; rep++ {
				if got := digest(artifactBytes(t, D, gc.opts)); got != gc.sha256 {
					t.Fatalf("%s GOMAXPROCS=%d rep %d: digest %s, want %s", gc.name, procs, rep, got, gc.sha256)
				}
			}
		}
	}
}
