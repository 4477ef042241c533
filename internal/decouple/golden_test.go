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
	{"HP162-force3", hpPhenomenological, Options{ForceK: 3, Seed: 5},
		"b095cbe5085bbb110f9262b2bb68237e1240f0241411a5d2ac5b0951ee3b85f6"},
	// Generated on PR 15's parent (5c6b0b1): exp.Benchmarks()' BB hints,
	// both of which fall short and are also rule Ks, and the
	// best-coverage fallback when no K clears the bar.
	{"BB72-circuit-hints12-6", bbCircuit(0), Options{HintKs: []int{12, 6}, Seed: 1234},
		"5b8c4a7a3dd70a209292e5b08950da4e4fbeb7025b596e0ae2f6d9126d6930b9"},
	{"BB144-circuit-hints12-6", bbCircuit(3), Options{HintKs: []int{12, 6}, Seed: 1234},
		"60971c418b31c26adb0b1f8167e97e99d41aea9aae99e9fed7b83020fde211a4"},
	{"BB72-circuit-fallback", bbCircuit(0), Options{Seed: 3, MinCoverage: 0.99},
		"3d180cc47a805d02e00b47fb1c713b3378236c6e1421d30c9ef2b68f157e9063"},
	{"BB144-circuit-fallback", bbCircuit(3), Options{Seed: 3, MinCoverage: 0.99},
		"e192a4f7faadfe4e033db0e39a29a88912aabd1415c322e8a86c0caaea2a3f92"},
	// Generated with the general-T subspace search still in place:
	// hpWindow4's 4-round HP162 window, decoupled at seeds 0 and 7.
	{"HP162-window4-seed0", hpWindow4, Options{},
		"f912390935e0d364dcdfeeeb33b1e2291b44c07a344caebc9aee8f6245349866"},
	{"HP162-window4-seed7", hpWindow4, Options{Seed: 7},
		"f912390935e0d364dcdfeeeb33b1e2291b44c07a344caebc9aee8f6245349866"},
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

// TestDecoupleGoldenDigests pins the exact bytes of the chosen artifact.
func TestDecoupleGoldenDigests(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			got := digest(artifactBytes(t, gc.matrix(t), gc.opts))
			if got != gc.sha256 {
				t.Errorf("artifact digest %s, want %s", got, gc.sha256)
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
// on every golden case, the hinted, forced, fallback (every K planned,
// the skipped ones last) and window ones included.
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
