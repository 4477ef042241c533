package vegapunk

// Benchmarks regenerating every table and figure of the paper's
// evaluation section (one bench per exhibit, at the Quick Monte-Carlo
// budget — run `cmd/experiments -quality normal|full` for the printed
// paper-style rows at higher statistics), plus micro-benchmarks of the
// hot kernels and the ablation benches called out in DESIGN.md §4.

import (
	"io"
	"math/rand/v2"
	"runtime"
	"testing"

	"vegapunk/internal/core"
	"vegapunk/internal/exp"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

// runExperiment executes one paper experiment at bench budget.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := exp.Config{
		Out:     io.Discard,
		Quality: exp.Quick,
		Workers: runtime.GOMAXPROCS(0),
		Seed:    2025,
	}
	for i := 0; i < b.N; i++ {
		ws := exp.NewWorkspace()
		if err := r.Run(cfg, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One bench per paper exhibit ----

func BenchmarkFig2Degeneracy(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkFig3aMotivationLER(b *testing.B)     { runExperiment(b, "fig3a") }
func BenchmarkFig3bMotivationLatency(b *testing.B) { runExperiment(b, "fig3b") }
func BenchmarkTable1Scaling(b *testing.B)          { runExperiment(b, "table1") }
func BenchmarkTable2Decoupling(b *testing.B) {
	// The offline stage of Table 2 in isolation: decouple every
	// benchmark code and validate the factorization.
	for i := 0; i < b.N; i++ {
		ws := exp.NewWorkspace()
		for _, bench := range exp.Benchmarks() {
			if _, err := ws.Decoupling(bench); err != nil {
				b.Fatal(err)
			}
		}
	}
}
func BenchmarkTable2Latency(b *testing.B)           { runExperiment(b, "table2") }
func BenchmarkTable3Dump(b *testing.B)              { runExperiment(b, "table3") }
func BenchmarkFig10LER(b *testing.B)                { runExperiment(b, "fig10") }
func BenchmarkFig11aThresholdScaling(b *testing.B)  { runExperiment(b, "fig11a") }
func BenchmarkFig11bLatencyScaling(b *testing.B)    { runExperiment(b, "fig11b") }
func BenchmarkTable4Utilization(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkFig12DecouplingAblation(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13IterationAblation(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig14aBaselineLatency(b *testing.B)   { runExperiment(b, "fig14a") }
func BenchmarkFig14bBaselineThreshold(b *testing.B) { runExperiment(b, "fig14b") }

// ---- Hot-kernel micro-benchmarks ----

// bb72Fixture builds the [[72,12,6]] circuit-level model, a decoupling
// and a pile of sampled syndromes.
func bb72Fixture(b *testing.B, p float64) (*Model, *Decoupling, []Vec) {
	b.Helper()
	c, err := BBCode(0)
	if err != nil {
		b.Fatal(err)
	}
	model := CircuitLevelNoise(c, p)
	dcp, err := Decouple(model.CheckMatrix(), DecoupleOptions{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	syndromes := make([]Vec, 256)
	for i := range syndromes {
		syndromes[i] = model.Syndrome(model.Sample(rng))
	}
	return model, dcp, syndromes
}

// BenchmarkMemoryExperimentBB72 is the end-to-end wall-clock benchmark
// of the acceptance criterion: a multi-round BB-code memory experiment
// decoded by Vegapunk, exercising the full sample → syndrome → decode →
// observable pipeline per round.
func BenchmarkMemoryExperimentBB72(b *testing.B) {
	c, err := BBCode(0)
	if err != nil {
		b.Fatal(err)
	}
	model := CircuitLevelNoise(c, 0.003)
	dcp, err := Decouple(model.CheckMatrix(), DecoupleOptions{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	factory := func() Decoder { return NewVegapunkWith(model, dcp, VegapunkOptions{}) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunMemory(model, factory, MemoryConfig{
			Rounds:  6,
			Shots:   64,
			Workers: runtime.GOMAXPROCS(0),
			Seed:    2025,
		})
	}
}

func BenchmarkGF2RowReduce(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 3))
	src := gf2.NewDense(200, 400)
	for i := 0; i < 200; i++ {
		for j := 0; j < 400; j++ {
			if rng.IntN(10) == 0 {
				src.Set(i, j, true)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Clone().RowReduce()
	}
}

// ---- Ablation benches (DESIGN.md §4) ----

// BenchmarkAblationGreedyWidth sweeps the GreedyGuess inner iteration
// budget.
func BenchmarkAblationGreedyWidth(b *testing.B) {
	model, dcp, syn := bb72Fixture(b, 0.005)
	for _, inner := range []int{1, 2, 3, 5} {
		b.Run(benchName("inner", inner), func(b *testing.B) {
			dec := hier.New(dcp, model.LLRs(), hier.Config{InnerIters: inner})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.Decode(syn[i%len(syn)])
			}
		})
	}
}

// BenchmarkAblationOuterM sweeps the outer iteration budget M (the
// latency half of Figure 13 in software).
func BenchmarkAblationOuterM(b *testing.B) {
	model, dcp, syn := bb72Fixture(b, 0.005)
	for _, m := range []int{1, 3, 5, 7} {
		b.Run(benchName("M", m), func(b *testing.B) {
			dec := hier.New(dcp, model.LLRs(), hier.Config{MaxIters: m})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec.Decode(syn[i%len(syn)])
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + string(rune('0'+v))
}

// silence unused-import nits if the build tags shift.
var _ = core.Factory(nil)

// ---- Extension benches: circuit-derived noise and sliding windows ----

func BenchmarkCircuitDEMConstruction(b *testing.B) {
	c, err := BBCode(0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CircuitMemoryDEM(c, CircuitParams{P: 0.001}, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSlidingWindowDecode(b *testing.B) {
	c, err := HPCode(0)
	if err != nil {
		b.Fatal(err)
	}
	per := PhenomenologicalNoise(c, 0.003, 0.003)
	cfg := WindowConfig{Window: 4, Commit: 2}
	st := SpaceTimeModel(per, cfg.Window)
	art, err := Decouple(st.CheckMatrix(), DecoupleOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	runner, err := NewWindow(per, cfg, func(m *Model) Decoder {
		return NewVegapunkWith(m, art, VegapunkOptions{})
	})
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 12
	full := SpaceTimeModel(per, rounds)
	rng := rand.New(rand.NewPCG(8, 8))
	syndromes := make([]Vec, 32)
	for i := range syndromes {
		syndromes[i] = full.Syndrome(full.Sample(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.DecodeStream(syndromes[i%len(syndromes)], rounds)
	}
}

func BenchmarkSpaceTimeUnroll(b *testing.B) {
	c, err := BBCode(3) // [[144,12,12]]
	if err != nil {
		b.Fatal(err)
	}
	per := CircuitLevelNoise(c, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpaceTimeModel(per, 12)
	}
}
