package osd

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// refOSDDecode is an allocating reference implementation of the same OSD
// search the production decoder runs in its reusable workspace: fresh
// [H|I] elimination per call, sort.SliceStable ordering, dense column
// flips. It mirrors the pivot and accumulation order exactly, so the
// chosen solution must be bit-identical.
func refOSDDecode(h *gf2.Dense, priorLLR []float64, cfg Config, syndrome gf2.Vec, soft []float64) gf2.Vec {
	if cfg.Order <= 0 {
		cfg.Order = 7
	}
	n, m := h.Cols(), h.Rows()
	if soft == nil {
		soft = priorLLR
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return soft[order[a]] < soft[order[b]] })

	aug := gf2.HStack(h, gf2.Eye(m))
	var pivCols []int
	r := 0
	for _, c := range order {
		if r >= m {
			break
		}
		p := -1
		for i := r; i < m; i++ {
			if aug.At(i, c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		aug.SwapRows(r, p)
		for i := 0; i < m; i++ {
			if i != r && aug.At(i, c) {
				aug.RowXor(i, r)
			}
		}
		pivCols = append(pivCols, c)
		r++
	}
	e := gf2.NewDense(m, m)
	aug.SubmatrixInto(e, 0, m, n, n+m)

	isPivot := make([]bool, n)
	for _, c := range pivCols {
		isPivot[c] = true
	}
	var nonPiv []int
	for _, c := range order {
		if !isPivot[c] {
			nonPiv = append(nonPiv, c)
		}
	}

	best := gf2.NewVec(n)
	bestW := math.Inf(1)
	try := func(flips []int) {
		b := syndrome.Clone()
		for _, c := range flips {
			for i := 0; i < m; i++ {
				if h.At(i, c) {
					b.Flip(i)
				}
			}
		}
		rb := e.MulVec(b)
		for i := len(pivCols); i < m; i++ {
			if rb.Get(i) {
				return
			}
		}
		cand := gf2.NewVec(n)
		for i, c := range pivCols {
			if rb.Get(i) {
				cand.Set(c, true)
			}
		}
		for _, c := range flips {
			cand.Flip(c)
		}
		w := 0.0
		for _, j := range cand.Ones() {
			w += priorLLR[j]
		}
		if w < bestW {
			best.CopyFrom(cand)
			bestW = w
		}
	}

	try(nil)
	t := min(cfg.Order, len(nonPiv))
	const lambda = 2
	var flips []int
	var sweep func(start int)
	sweep = func(start int) {
		if len(flips) > 0 {
			try(flips)
		}
		if len(flips) == lambda {
			return
		}
		for a := start; a < t; a++ {
			flips = append(flips, nonPiv[a])
			sweep(a + 1)
			flips = flips[:len(flips)-1]
		}
	}
	sweep(0)
	if math.IsInf(bestW, 1) {
		best.Zero()
	}
	return best
}

// TestOSDEquivalentToReference pins the workspace-reusing decoder to the
// allocating slice-of-slices reference on a BB and an HP code, with
// randomized soft reliabilities standing in for BP posteriors.
func TestOSDEquivalentToReference(t *testing.T) {
	bb, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	models := []*dem.Model{
		dem.CircuitLevel(bb, 0.003),
		dem.Phenomenological(hp, 0.003, 0.003),
	}
	for _, model := range models {
		h := model.Mech.ToDense()
		llr := model.LLRs()
		for _, cfg := range []Config{
			{Order: 0},
			{Order: 5},
		} {
			d := New(model.Mech, llr, cfg)
			rng := rand.New(rand.NewPCG(21, 5))
			for shot := 0; shot < 8; shot++ {
				syn := model.Syndrome(model.Sample(rng))
				soft := make([]float64, len(llr))
				for j := range soft {
					soft[j] = llr[j] + rng.NormFloat64()
				}
				got := d.Decode(syn, soft)
				want := refOSDDecode(h, llr, cfg, syn, soft)
				if !got.Equal(want) {
					t.Fatalf("%s cfg %+v shot %d: decode differs from reference", model.Name, cfg, shot)
				}
			}
		}
	}
}
