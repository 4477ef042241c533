package circuit

import (
	"fmt"
	"sort"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// Params sets the physical fault strengths of the extraction circuit.
// All default to P when zero.
type Params struct {
	// P is the base physical error rate.
	P float64
	// DataDepol is the single-qubit depolarizing strength applied to
	// every data qubit before each round (X-relevant component 2/3).
	DataDepol float64
	// GateDepol is the two-qubit depolarizing strength after every CNOT
	// (each X-relevant component 4/15).
	GateDepol float64
	// Meas is the measurement flip probability; Reset the ancilla reset
	// flip probability.
	Meas, Reset float64
}

func (p Params) withDefaults() Params {
	if p.DataDepol == 0 {
		p.DataDepol = p.P
	}
	if p.GateDepol == 0 {
		p.GateDepol = p.P
	}
	if p.Meas == 0 {
		p.Meas = p.P
	}
	if p.Reset == 0 {
		p.Reset = p.P
	}
	return p
}

// signature accumulates merged fault mechanisms.
type signature struct {
	dets, obs []int
}

func (s signature) key() string {
	out := make([]byte, 0, 4*(len(s.dets)+len(s.obs))+1)
	for _, d := range s.dets {
		out = append(out, byte(d), byte(d>>8), byte(d>>16), ',')
	}
	out = append(out, '|')
	for _, o := range s.obs {
		out = append(out, byte(o), byte(o>>8), ',')
	}
	return string(out)
}

// builder merges fault signatures with XOR-convolved probabilities.
type builder struct {
	sigs map[string]int
	list []signature
	prob []float64
}

func newBuilder() *builder { return &builder{sigs: map[string]int{}} }

// add registers a fault with the given probability, merging identical
// signatures via p ← p₁(1-p₂) + p₂(1-p₁).
func (b *builder) add(dets, obs []int, p float64) {
	if p <= 0 || len(dets) == 0 && len(obs) == 0 {
		return
	}
	d := append([]int(nil), dets...)
	sort.Ints(d)
	d = dedup(d)
	o := append([]int(nil), obs...)
	sort.Ints(o)
	o = dedup(o)
	if len(d) == 0 && len(o) == 0 {
		return
	}
	sig := signature{dets: d, obs: o}
	k := sig.key()
	if idx, ok := b.sigs[k]; ok {
		q := b.prob[idx]
		b.prob[idx] = q*(1-p) + p*(1-q)
		return
	}
	b.sigs[k] = len(b.list)
	b.list = append(b.list, sig)
	b.prob = append(b.prob, p)
}

// dedup removes pairs of equal entries (XOR semantics on sorted slices).
func dedup(xs []int) []int {
	out := xs[:0]
	for i := 0; i < len(xs); {
		if i+1 < len(xs) && xs[i] == xs[i+1] {
			i += 2
			continue
		}
		out = append(out, xs[i])
		i++
	}
	return out
}

// MemoryDEM builds the full space-time detector error model of a
// rounds-deep memory experiment: `rounds` noisy extraction rounds
// followed by one ideal readout round, (rounds+1)·m detectors in the
// syndrome-difference convention.
func MemoryDEM(c *code.CSS, params Params, rounds int) (*dem.Model, error) {
	params = params.withDefaults()
	if rounds < 1 {
		rounds = 1
	}
	h, lz := c.HZ, c.LogicalZ()
	circ, err := Extraction(h)
	if err != nil {
		return nil, err
	}
	if err := circ.Validate(h); err != nil {
		return nil, err
	}
	m, n := h.Rows(), h.Cols()

	// For each data qubit, its checks ordered by CNOT time.
	type touch struct{ chk, time int }
	touches := make([][]touch, n)
	for chk := 0; chk < m; chk++ {
		for k, q := range circ.Schedule[chk] {
			touches[q] = append(touches[q], touch{chk, circ.TimeOf[chk][k]})
		}
	}
	for q := range touches {
		sort.Slice(touches[q], func(a, b int) bool { return touches[q][a].time < touches[q][b].time })
	}
	obsOf := make([][]int, n)
	for q := range obsOf {
		obsOf[q] = lz.Col(q).Ones()
	}

	b := newBuilder()
	// dataFault registers an X on qubit q occurring after CNOT index k
	// (k = -1: before the round) of round r: checks touched later see it
	// this round, the rest next round.
	dataFault := func(q, k, r int, p float64, extraDets []int) {
		var dets []int
		for idx, t := range touches[q] {
			if idx > k {
				dets = append(dets, r*m+t.chk)
			} else {
				dets = append(dets, (r+1)*m+t.chk)
			}
		}
		dets = append(dets, extraDets...)
		b.add(dets, obsOf[q], p)
	}

	for r := 0; r < rounds; r++ {
		// Pre-round data depolarizing (X or Y component).
		for q := 0; q < n; q++ {
			dataFault(q, -1, r, 2*params.DataDepol/3, nil)
		}
		// Per-CNOT two-qubit depolarizing.
		for q := 0; q < n; q++ {
			for k, t := range touches[q] {
				comp := 4 * params.GateDepol / 15
				measSig := []int{r*m + t.chk, (r+1)*m + t.chk}
				// X on data only.
				dataFault(q, k, r, comp, nil)
				// X on ancilla only: flips this check's measurement.
				b.add(measSig, nil, comp)
				// X on both.
				dataFault(q, k, r, comp, measSig)
			}
		}
		// Measurement and reset flips.
		for chk := 0; chk < m; chk++ {
			sig := []int{r*m + chk, (r+1)*m + chk}
			b.add(sig, nil, params.Meas)
			b.add(sig, nil, params.Reset)
		}
	}

	dets, obs := make([][]int, len(b.list)), make([][]int, len(b.list))
	for j, sig := range b.list {
		dets[j], obs[j] = sig.dets, sig.obs
	}
	model := &dem.Model{
		Name:   fmt.Sprintf("%s circuit-derived p=%g rounds=%d", c.Name, params.P, rounds),
		NumDet: (rounds + 1) * m,
		NumObs: lz.Rows(),
		Mech:   gf2.CSCFromSupports((rounds+1)*m, dets),
		Obs:    gf2.CSCFromSupports(lz.Rows(), obs),
		Prior:  b.prob,
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return model, nil
}
