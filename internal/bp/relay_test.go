package bp

import (
	"math/rand/v2"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func relayModel(t *testing.T) *dem.Model {
	t.Helper()
	c, err := code.NewBBByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	return dem.CircuitLevel(c, 0.003)
}

func sampleSyndromesSeed(model *dem.Model, n int, seed uint64) []gf2.Vec {
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, n)
	for i := range out {
		out[i] = model.Syndrome(model.Sample(rng))
	}
	return out
}

// unsolvedSyndromes returns n sampled syndromes that plain min-sum does
// not solve within maxIters: under relay each of them leaves leg 0
// unsolved and needs the memory legs.
func unsolvedSyndromes(tb testing.TB, model *dem.Model, maxIters, n int, seed uint64) []gf2.Vec {
	tb.Helper()
	plain := New(model.Mech, model.LLRs(), Config{MaxIters: maxIters})
	rng := rand.New(rand.NewPCG(seed, 7))
	out := make([]gf2.Vec, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			tb.Fatalf("only %d unsolved syndromes in %d samples", len(out), tries)
		}
		if s := model.Syndrome(model.Sample(rng)); !plain.Decode(s).Converged {
			out = append(out, s)
		}
	}
	return out
}

// stallingPool returns n sampled syndromes of which every third is
// replaced by an unsolved one — the ones relay needs its memory legs
// for.
func stallingPool(tb testing.TB, model *dem.Model, maxIters, n int, seed uint64) []gf2.Vec {
	tb.Helper()
	out := sampleSyndromesSeed(model, n, seed)
	for i, s := range unsolvedSyndromes(tb, model, maxIters, (n+2)/3, seed) {
		out[3*i] = s
	}
	return out
}

// TestRelayStallRule pins when a leg is left. The plain reference runs
// every syndrome of a seeded pool for the full cap and its hard-decision
// trace says what the leg does: it converges, settles on a fixed point,
// or enters a 2-cycle. Production's leg 0 under relay must stop exactly
// where the rule puts it for each kind — in particular a run that is
// still converging at its third iteration or later is not cut short.
func TestRelayStallRule(t *testing.T) {
	model := relayModel(t)
	const maxIters = 30
	ref := newRef(model.Mech, model.LLRs(), Config{MaxIters: maxIters})
	d := New(model.Mech, model.LLRs(), Config{MaxIters: maxIters, Legs: 1})

	type kind int
	const (
		converging kind = iota // solved at iteration ≥ 3, no repeat before
		fixedPoint             // unsolved, the hard decision stops changing
		twoCycle               // unsolved, the hard decision alternates
		kinds
	)
	names := [kinds]string{"converging", "fixed point", "2-cycle"}
	var seen [kinds]int
	for i, s := range sampleSyndromesSeed(model, 8192, 3) {
		_, _, conv, iters := ref.decode(s)
		// First iteration past the second whose hard decision is the one
		// two back: where the stall rule leaves an unsolved leg.
		stall := 0
		for it := 3; it <= iters && stall == 0; it++ {
			if ref.trace[it-1].Equal(ref.trace[it-3]) {
				stall = it
			}
		}
		var k kind
		wantIters, wantConv := stall, false
		switch {
		case conv && iters >= 3 && stall == 0:
			k, wantIters, wantConv = converging, iters, true
		case !conv && stall != 0 && ref.trace[stall-1].Equal(ref.trace[stall-2]):
			k = fixedPoint
		case !conv && stall != 0:
			k = twoCycle
		default:
			continue
		}
		seen[k]++
		d.initMessages()
		gotIters := 0
		gotConv := d.runLeg(s, nil, &gotIters)
		if gotIters != wantIters || gotConv != wantConv {
			t.Errorf("syndrome %d (%s): leg 0 left at iteration %d converged %v, want %d %v",
				i, names[k], gotIters, gotConv, wantIters, wantConv)
		}
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("pool holds no %s syndrome", names[k])
		}
	}
	t.Logf("converging %d, fixed point %d, 2-cycle %d", seen[converging], seen[fixedPoint], seen[twoCycle])
}

// TestRelayDeterministic pins that a correction depends on the syndrome
// alone: two constructions share one γ table, so serve's pooled decoders
// and the router's retry and hedge paths return the same bytes whichever
// instance answers. Every third syndrome of the pool needs the memory
// legs.
func TestRelayDeterministic(t *testing.T) {
	model := relayModel(t)
	cfg := Config{MaxIters: 30, Legs: 8}
	a := New(model.Mech, model.LLRs(), cfg)
	b := New(model.Mech, model.LLRs(), cfg)
	for i, s := range stallingPool(t, model, cfg.MaxIters, 256, 11) {
		ra := a.Decode(s)
		want, wantIters := ra.Error.Clone(), ra.Iters
		for name, d := range map[string]*Decoder{"second New": b, "same instance again": a} {
			if r := d.Decode(s); !r.Error.Equal(want) || r.Iters != wantIters {
				t.Fatalf("syndrome %d: %s differs (iters %d, want %d)", i, name, r.Iters, wantIters)
			}
		}
	}
}
