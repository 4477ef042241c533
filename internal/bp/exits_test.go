package bp

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

// firstSolution is the decode of the parent commit, kept as a reference:
// the relay chain stops at the first leg that converges, whatever the
// solution weighs, and there is no zero exit.
func firstSolution(d *Decoder, s gf2.Vec) Result {
	d.initMessages()
	res := Result{Posterior: d.posterior}
	res.Converged = d.runLeg(s, nil, &res.Iters)
	for leg := 0; leg < d.cfg.Legs && !res.Converged; leg++ {
		res.Converged = d.runLeg(s, d.gamma[leg], &res.Iters)
	}
	res.Error = d.hard
	return res
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if !got.Error.Equal(want.Error) || got.Converged != want.Converged || got.Iters != want.Iters {
		t.Fatalf("%s: error weight %d converged %v iters %d, want %d %v %d", what,
			got.Error.Weight(), got.Converged, got.Iters, want.Error.Weight(), want.Converged, want.Iters)
	}
	for v := range want.Posterior {
		if got.Posterior[v] != want.Posterior[v] {
			t.Fatalf("%s: posterior[%d] = %v, want %v", what, v, got.Posterior[v], want.Posterior[v])
		}
	}
}

// TestZeroExitEqualsKernel pins the zero exit to the kernel it skips:
// Decode of the all-zero syndrome is what the un-exited kernel returns
// in every field, plain and under relay, and with one negative prior
// the exit is off and the answer is the kernel's again.
func TestZeroExitEqualsKernel(t *testing.T) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	shows := 0 // decodes in which the negative prior changes more than the posterior
	for _, model := range []*dem.Model{dem.CircuitLevel(c, 0.003), dem.CodeCapacity(c, 0.01)} {
		zero := gf2.NewVec(model.NumDet)
		negated := slices.Clone(model.LLRs())
		negated[5] = -negated[5]
		for _, legs := range []int{0, 8} {
			cfg := Config{MaxIters: 30, Legs: legs}
			d := New(model.Mech, model.LLRs(), cfg)
			if d.zeroPost == nil {
				t.Fatalf("%s legs %d: no zero exit on non-negative priors", model.Name, legs)
			}
			want := firstSolution(New(model.Mech, model.LLRs(), cfg), zero)
			if !want.Error.IsZero() || !want.Converged || want.Iters != 1 {
				t.Fatalf("%s legs %d: the kernel does not solve the zero syndrome in one iteration", model.Name, legs)
			}
			d.Decode(sampleSyndromesSeed(model, 1, 9)[0]) // leave state behind
			sameResult(t, model.Name+" zero exit", d.Decode(zero), want)

			d = New(model.Mech, negated, cfg)
			if d.zeroPost != nil {
				t.Fatalf("%s legs %d: zero exit armed with a negative prior", model.Name, legs)
			}
			ref := newRef(model.Mech, negated, cfg)
			e, post, conv, iters := ref.decode(zero)
			if !e.IsZero() || iters > 1 {
				shows++
			}
			sameResult(t, model.Name+" negative prior", d.Decode(zero), Result{Error: e, Posterior: post, Converged: conv, Iters: iters})
		}
	}
	if shows == 0 {
		t.Error("iteration 1 returns the zero vector on every model despite the negative prior")
	}
}

// TestCertificateSound brute-forces the certificate on the [[18,2,3]]
// toric code: whenever relay returns at its first solution although
// legs and ensemble room remain, no error of lower Hamming weight has
// that syndrome.
func TestCertificateSound(t *testing.T) {
	ring := code.RingCode(3)
	c, err := code.NewHP("toric 3x3", ring, ring, 3)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.CodeCapacity(c, 0.12)
	n := model.NumMech()
	if n > 20 {
		t.Fatalf("%d mechanisms: too many to enumerate", n)
	}
	// minWeight[s] is the least weight of an error with syndrome s, over
	// all 2^n errors; syn[x] reuses syn[x minus its lowest bit].
	col := make([]uint32, n)
	for j := range col {
		for _, i := range model.Mech.ColSpan(j) {
			col[j] |= 1 << uint(i)
		}
	}
	minWeight := make([]int, 1<<uint(model.NumDet))
	for s := range minWeight {
		minWeight[s] = n + 1
	}
	syn := make([]uint32, 1<<uint(n))
	for x := 1; x < len(syn); x++ {
		syn[x] = syn[x&(x-1)] ^ col[bits.TrailingZeros(uint(x))]
		minWeight[syn[x]] = min(minWeight[syn[x]], bits.OnesCount(uint(x)))
	}

	cfg := Config{MaxIters: 30, Legs: 8}
	d, ref := New(model.Mech, model.LLRs(), cfg), New(model.Mech, model.LLRs(), cfg)
	fired, ensembled := 0, 0
	for i, s := range sampleSyndromesSeed(model, 4096, 13) {
		if s.IsZero() {
			continue
		}
		first := firstSolution(ref, s)
		got := d.Decode(s)
		if !first.Converged {
			continue
		}
		if got.Iters != first.Iters {
			ensembled++
			continue
		}
		fired++
		if w, least := got.Error.Weight(), minWeight[s.Word(0)]; w != least {
			t.Fatalf("syndrome %d: certificate exit returned weight %d, an error of weight %d has the same syndrome", i, w, least)
		}
	}
	if fired == 0 || ensembled == 0 {
		t.Errorf("certificate fired on %d syndromes and not on %d: one side is untested", fired, ensembled)
	}
	t.Logf("certificate fired on %d first solutions, %d went to the ensemble", fired, ensembled)
}

// TestEnsembleNeverHeavier runs relay against the first-solution
// reference over the first 4 096 shots of the benchmark's
// serve-batch-bp-bb72 pool at seed 1: a converged answer satisfies its
// syndrome, whatever the reference solves is solved, and the answer's
// prior weight is never above the reference's.
func TestEnsembleNeverHeavier(t *testing.T) {
	model := relayModel(t)
	cfg := Config{MaxIters: 30, Legs: 8}
	d, ref := New(model.Mech, model.LLRs(), cfg), New(model.Mech, model.LLRs(), cfg)
	prior := model.LLRs()
	rng := rand.New(rand.NewPCG(1, 2))
	const shots = 4096
	var wrongFirst, wrong, unsat, ensembled, lighter, iters, itersFirst int
	for i := 0; i < shots; i++ {
		e := model.Sample(rng)
		s, obs := model.Syndrome(e), model.Observables(e)
		first := firstSolution(ref, s)
		got := d.Decode(s)
		iters, itersFirst = iters+got.Iters, itersFirst+first.Iters
		if got.Converged != first.Converged {
			t.Fatalf("shot %d: converged %v, first-solution reference %v", i, got.Converged, first.Converged)
		}
		if !got.Converged {
			unsat++
		} else if !model.Mech.MulVec(got.Error).Equal(s) {
			t.Fatalf("shot %d: converged answer does not satisfy the syndrome", i)
		}
		if w, wf := got.Error.WeightSum(prior), first.Error.WeightSum(prior); got.Converged && w > wf {
			t.Fatalf("shot %d: answer weighs %v, the first solution %v", i, w, wf)
		} else if w < wf {
			lighter++
		}
		if !s.IsZero() && got.Iters != first.Iters {
			ensembled++
		}
		if !model.Observables(first.Error).Equal(obs) {
			wrongFirst++
		}
		if !model.Observables(got.Error).Equal(obs) {
			wrong++
		}
	}
	if lighter == 0 {
		t.Error("the ensemble never found a lighter solution — the test exercises nothing")
	}
	if wrong > wrongFirst {
		t.Errorf("%d wrong answers, %d at the first solution", wrong, wrongFirst)
	}
	t.Logf("%d shots: wrong %d -> %d, unsatisfied %d, ensembled %d (lighter answer on %d), iterations mean %.3f -> %.3f",
		shots, wrongFirst, wrong, unsat, ensembled, lighter, float64(itersFirst)/shots, float64(iters)/shots)
}
