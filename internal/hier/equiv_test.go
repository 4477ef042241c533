package hier

import (
	"math/rand/v2"
	"sync"
	"testing"

	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// refBlockSol mirrors blockSol with freshly allocated vectors.
type refBlockSol struct {
	f, g gf2.Vec
	obj  float64
}

// refSupports is the reference's own slice-of-slices form of a sparse
// matrix, read off its dense form once per matrix.
func refSupports(c *gf2.CSC) [][]int {
	if sups, ok := refSupportsOf.Load(c); ok {
		return sups.([][]int)
	}
	d := c.ToDense()
	sups := make([][]int, d.Cols())
	for j := range sups {
		sups[j] = d.Col(j).Ones()
	}
	refSupportsOf.Store(c, sups)
	return sups
}

var refSupportsOf sync.Map // *gf2.CSC → [][]int

// refGreedyGuess is the slice-of-slices GreedyGuess: same flip order and
// floating-point accumulation sequence as the flat-span production code,
// but iterating its own column supports and allocating per call.
func refGreedyGuess(dec *decouple.Decoupling, w []float64, cfg Config, g int, sl gf2.Vec) refBlockSol {
	b := refSupports(dec.Blocks[g])
	wf := w[g*dec.ND : g*dec.ND+dec.MD]
	wg := w[g*dec.ND+dec.MD : (g+1)*dec.ND]
	nB := len(b)
	f := sl.Clone()
	gv := gf2.NewVec(nB)
	obj := 0.0
	for _, r := range f.Ones() {
		obj += wf[r]
	}
	for round := 1; round <= InnerIters; round++ {
		bestBit := -1
		bestDelta := 0.0
		for bit := 0; bit < nB; bit++ {
			if gv.Get(bit) {
				continue
			}
			delta := wg[bit]
			for _, r := range b[bit] {
				if f.Get(r) {
					delta -= wf[r]
				} else {
					delta += wf[r]
				}
			}
			if bestBit < 0 || delta < bestDelta {
				bestBit, bestDelta = bit, delta
			}
		}
		if bestBit < 0 || bestDelta >= 0 {
			break
		}
		gv.Set(bestBit, true)
		for _, r := range b[bestBit] {
			f.Flip(r)
		}
		obj += bestDelta
	}
	return refBlockSol{f: f, g: gv, obj: obj}
}

func refFirstBlock(sup []int, mD, g int) int {
	for i, r := range sup {
		if r/mD == g {
			return i
		}
	}
	return len(sup)
}

// refHierDecode is a direct slice-of-slices implementation of Algorithm 1,
// mirroring the production decision order so decodes are bit-identical.
// With fullRedecode every candidate re-solves all K blocks against the
// whole modified syndrome instead of only the blocks its column touches:
// the accelerator's incremental update (§5.2) switched off, which
// production no longer carries.
func refHierDecode(dec *decouple.Decoupling, originalWeights []float64, cfg Config, syndrome gf2.Vec, fullRedecode bool) gf2.Vec {
	cfg = cfg.withDefaults()
	w := dec.PermuteWeights(originalWeights)
	wa := w[dec.K*dec.ND:]

	sPrime := dec.T.MulVec(syndrome)
	rBest := gf2.NewVec(dec.NA)
	slBase := sPrime.Clone()

	blockSyn := func(sl gf2.Vec, g int) gf2.Vec { return sl.Slice(g*dec.MD, (g+1)*dec.MD) }
	candBlockSyn := func(sup []int, g int) gf2.Vec {
		sl := blockSyn(slBase, g)
		for _, r := range sup {
			if r/dec.MD == g {
				sl.Flip(r - g*dec.MD)
			}
		}
		return sl
	}

	// solveBlocks lists the blocks a candidate re-solves, in the order
	// their objective changes are summed.
	solveBlocks := func(sup []int) []int {
		var gs []int
		if fullRedecode {
			for g := 0; g < dec.K; g++ {
				gs = append(gs, g)
			}
			return gs
		}
		for bi, r := range sup {
			if g := r / dec.MD; refFirstBlock(sup, dec.MD, g) == bi {
				gs = append(gs, g)
			}
		}
		return gs
	}

	sols := make([]refBlockSol, dec.K)
	for g := 0; g < dec.K; g++ {
		sols[g] = refGreedyGuess(dec, w, cfg, g, blockSyn(slBase, g))
	}

	for k := 1; k <= cfg.MaxIters; k++ {
		bestI := -1
		bestDelta := 0.0
		for i := 0; i < dec.NA; i++ {
			if rBest.Get(i) {
				continue
			}
			sup := refSupports(dec.A)[i]
			delta := wa[i]
			for _, g := range solveBlocks(sup) {
				sol := refGreedyGuess(dec, w, cfg, g, candBlockSyn(sup, g))
				delta += sol.obj - sols[g].obj
			}
			if bestI < 0 || delta < bestDelta {
				bestI, bestDelta = i, delta
			}
		}
		if bestI < 0 || bestDelta >= 0 {
			break
		}
		sup := refSupports(dec.A)[bestI]
		for _, g := range solveBlocks(sup) {
			sols[g] = refGreedyGuess(dec, w, cfg, g, candBlockSyn(sup, g))
		}
		rBest.Set(bestI, true)
		for _, r := range sup {
			slBase.Flip(r)
		}
	}

	ePrime := gf2.NewVec(dec.N)
	for g := 0; g < dec.K; g++ {
		base := g * dec.ND
		for _, i := range sols[g].f.Ones() {
			ePrime.Set(base+i, true)
		}
		for _, i := range sols[g].g.Ones() {
			ePrime.Set(base+dec.MD+i, true)
		}
	}
	aBase := dec.K * dec.ND
	for _, i := range rBest.Ones() {
		ePrime.Set(aBase+i, true)
	}
	return dec.RecoverError(ePrime)
}

var equivFixtures = []struct {
	name string
	fix  func(*testing.T) (*dem.Model, *decouple.Decoupling)
}{
	{"hp", hpFixture},
	{"bb", bbFixture},
}

// TestHierEquivalentToSliceOfSlices pins the flat-span hierarchical
// decoder to the slice-of-slices reference on sampled syndromes for a BB
// and an HP code: decodes must be bit-identical.
func TestHierEquivalentToSliceOfSlices(t *testing.T) {
	for _, fx := range equivFixtures {
		model, dec := fx.fix(t)
		cfg := Config{}
		d := New(dec, model.LLRs(), cfg)
		rng := rand.New(rand.NewPCG(9, 17))
		for shot := 0; shot < 15; shot++ {
			syn := model.Syndrome(model.Sample(rng))
			got, _ := d.Decode(syn)
			want := refHierDecode(dec, model.LLRs(), cfg, syn, false)
			if !got.Equal(want) {
				t.Fatalf("%s shot %d: flat decode differs from slice-of-slices reference", fx.name, shot)
			}
		}
	}
}

// TestIncrementalMatchesFullRecompute checks the incremental update
// against re-solving everything: a block the flipped column does not
// touch sees the same syndrome, so its solution and objective cannot
// move, and the decoder that re-solves only touched blocks must give
// the correction the full re-decode reference gives.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	for _, fx := range equivFixtures {
		model, dec := fx.fix(t)
		d := New(dec, model.LLRs(), Config{})
		rng := rand.New(rand.NewPCG(4, 4))
		for shot := 0; shot < 10; shot++ {
			syn := model.Syndrome(model.Sample(rng))
			got, _ := d.Decode(syn)
			want := refHierDecode(dec, model.LLRs(), Config{}, syn, true)
			if !got.Equal(want) {
				t.Fatalf("%s shot %d: incremental decode differs from the full re-decode reference", fx.name, shot)
			}
		}
	}
}
