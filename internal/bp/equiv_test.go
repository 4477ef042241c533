package bp

import (
	"math"
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// refDecoder is a slice-of-slices reference implementation of the same
// normalized-min-sum BP the production decoder runs over flat CSR edge
// spans. It mirrors the update order of the flat kernels exactly
// (column-major edge numbering, checks visited in ascending order), so
// every floating-point operation happens in the same sequence and the
// decodes must be bit-identical. It carries relay the plain way — a γ
// table redrawn from the package constants, every hard decision of the
// decode kept in trace, every solution of the ensemble kept in a list —
// so the production γ table, leg sequencing, stall rule, certificate
// exit and ensemble choice are pinned by it too. It has no zero exit.
type refDecoder struct {
	cfg        Config
	h          *gf2.Dense
	prior      []float64
	checkEdges [][]int // per-check incident edge ids
	varEdges   [][]int // per-variable incident edge ids
	varOf      []int
	v2c, c2v   []float64
	post       []float64
	gamma      [][]float64 // [leg][variable]
	trace      []gf2.Vec   // hard decision of every iteration of the last decode
	legs       int         // legs the last decode ran, the plain one included
}

func newRef(sparse *gf2.CSC, prior []float64, cfg Config) *refDecoder {
	h := sparse.ToDense()
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = h.Cols()
	}
	r := &refDecoder{
		cfg:        cfg,
		h:          h,
		prior:      prior,
		checkEdges: make([][]int, h.Rows()),
		varEdges:   make([][]int, h.Cols()),
	}
	e := 0
	for v := 0; v < h.Cols(); v++ {
		for _, c := range h.Col(v).Ones() {
			r.checkEdges[c] = append(r.checkEdges[c], e)
			r.varEdges[v] = append(r.varEdges[v], e)
			r.varOf = append(r.varOf, v)
			e++
		}
	}
	r.v2c = make([]float64, e)
	r.c2v = make([]float64, e)
	r.post = make([]float64, h.Cols())
	rng := rand.New(rand.NewPCG(gammaSeed, 0))
	for leg := 0; leg < cfg.Legs; leg++ {
		row := make([]float64, h.Cols())
		for v := range row {
			row[v] = gammaLo + (gammaHi-gammaLo)*rng.Float64()
		}
		r.gamma = append(r.gamma, row)
	}
	return r
}

func (r *refDecoder) decode(s gf2.Vec) (gf2.Vec, []float64, bool, int) {
	for v := range r.varEdges {
		for _, e := range r.varEdges[v] {
			r.v2c[e] = r.prior[v]
		}
	}
	r.trace, r.legs = r.trace[:0], 0
	var sols []gf2.Vec
	for leg := -1; leg < r.cfg.Legs && len(sols) < relaySolutions; leg++ {
		var gamma []float64
		if leg >= 0 {
			gamma = r.gamma[leg]
		}
		if !r.leg(s, gamma) {
			continue
		}
		sol := r.trace[len(r.trace)-1]
		floor := (s.Weight() + r.h.MaxColWeight() - 1) / r.h.MaxColWeight()
		if len(sols) == 0 && (r.cfg.Legs == 0 || sol.Weight() <= floor) {
			return sol, r.post, true, len(r.trace)
		}
		sols = append(sols, sol)
	}
	if len(sols) == 0 {
		return r.trace[len(r.trace)-1], r.post, false, len(r.trace)
	}
	best := sols[0]
	for _, sol := range sols[1:] {
		if sol.WeightSum(r.prior) < best.WeightSum(r.prior) {
			best = sol
		}
	}
	return best, r.post, true, len(r.trace)
}

// leg runs one leg, appending its hard decisions to trace. With relay on
// it stops at the first iteration past the second whose hard decision is
// the one two iterations back.
func (r *refDecoder) leg(s gf2.Vec, gamma []float64) bool {
	r.legs++
	for it := 1; it <= r.cfg.MaxIters; it++ {
		r.checkUpdate(s)
		r.varUpdate(gamma)
		hard := gf2.NewVec(r.h.Cols())
		for v := range r.post {
			if r.post[v] < 0 {
				hard.Set(v, true)
			}
		}
		r.trace = append(r.trace, hard)
		if r.h.MulVec(hard).Equal(s) {
			return true
		}
		if n := len(r.trace); r.cfg.Legs > 0 && it > 2 && hard.Equal(r.trace[n-3]) {
			return false
		}
	}
	return false
}

func (r *refDecoder) checkUpdate(s gf2.Vec) {
	for c := range r.checkEdges {
		edges := r.checkEdges[c]
		min1, min2 := math.Inf(1), math.Inf(1)
		min1Edge := -1
		negCount := 0
		for _, e := range edges {
			m := r.v2c[e]
			a := math.Abs(m)
			if m < 0 {
				negCount++
			}
			if a < min1 {
				min2 = min1
				min1 = a
				min1Edge = e
			} else if a < min2 {
				min2 = a
			}
		}
		baseSign := 1.0
		if s.Get(c) {
			baseSign = -1.0
		}
		if negCount%2 == 1 {
			baseSign = -baseSign
		}
		for _, e := range edges {
			mag := min1
			if e == min1Edge {
				mag = min2
			}
			sgn := baseSign
			if r.v2c[e] < 0 {
				sgn = -sgn
			}
			r.c2v[e] = 0.75 * sgn * mag
		}
	}
}

func (r *refDecoder) varUpdate(gamma []float64) {
	for v := range r.varEdges {
		sum := r.prior[v]
		if gamma != nil {
			sum = (1-gamma[v])*r.prior[v] + gamma[v]*r.post[v]
		}
		for _, e := range r.varEdges[v] {
			sum += r.c2v[e]
		}
		r.post[v] = sum
		for _, e := range r.varEdges[v] {
			r.v2c[e] = sum - r.c2v[e]
		}
	}
}

func equivModels(t *testing.T) []*dem.Model {
	t.Helper()
	bb, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return []*dem.Model{
		dem.CircuitLevel(bb, 0.003),
		dem.Phenomenological(hp, 0.003, 0.003),
	}
}

// TestBPEquivalentToSliceOfSlices pins the flat-span decoder to the
// slice-of-slices reference: identical hard decisions, posteriors,
// convergence flags, and iteration counts on sampled syndromes, plain
// (the kernel BP+OSD, BP+LSD and BPGD sit on) and with relay legs, where
// the sample is large enough that some syndromes need several legs.
func TestBPEquivalentToSliceOfSlices(t *testing.T) {
	severalLegs := 0
	for _, model := range equivModels(t) {
		for _, tc := range []struct {
			cfg   Config
			shots int
		}{{Config{MaxIters: 30}, 25}, {Config{MaxIters: 30, Legs: 8}, 400}} {
			cfg := tc.cfg
			d := New(model.Mech, model.LLRs(), cfg)
			ref := newRef(model.Mech, model.LLRs(), cfg)
			rng := rand.New(rand.NewPCG(42, 7))
			for shot := 0; shot < tc.shots; shot++ {
				syn := model.Syndrome(model.Sample(rng))
				got := d.Decode(syn)
				wantE, wantPost, wantConv, wantIters := ref.decode(syn)
				if got.Converged != wantConv || got.Iters != wantIters {
					t.Fatalf("%s %+v shot %d: converged/iters %v/%d, want %v/%d",
						model.Name, cfg, shot, got.Converged, got.Iters, wantConv, wantIters)
				}
				if !got.Error.Equal(wantE) {
					t.Fatalf("%s %+v shot %d: hard decision differs", model.Name, cfg, shot)
				}
				for v := range wantPost {
					if got.Posterior[v] != wantPost[v] {
						t.Fatalf("%s %+v shot %d: posterior[%d] = %v, want %v",
							model.Name, cfg, shot, v, got.Posterior[v], wantPost[v])
					}
				}
				if ref.legs > 2 {
					severalLegs++
				}
			}
		}
	}
	if severalLegs == 0 {
		t.Error("no syndrome ran a second memory leg — the relay row exercises too little")
	}
}
