package exp

import (
	"fmt"

	"vegapunk/internal/accel"
	"vegapunk/internal/core"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/hier"
	"vegapunk/internal/sim"
)

// Fig12 reproduces the offline-decoupling ablation: Vegapunk with and
// without the decoupling strategy on three BB codes. The paper reports
// 17.9x/26.1x/31.1x accuracy improvements; the mechanism is that
// without block structure the M greedy flips must explain the whole
// syndrome.
func Fig12(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 12: ablation of the offline decoupling strategy (p = 0.3%%, deep space-time batch) ==\n")
	cfg.printf("%-18s %-22s %-26s %12s\n", "code", "Vegapunk LER", "w/o decoupling LER", "improvement")
	// The ablation decodes whole space-time batches (all rounds at
	// once), where syndromes carry enough weight that the iteration
	// budget M matters: without block structure, M = 3 greedy flips must
	// explain the entire volume; with decoupling, the blocks absorb the
	// left error exactly and M only covers the right part. (Per-round
	// decoding at realistic p yields weight <= 3 syndromes on which both
	// variants trivially coincide.)
	const p = 3e-3
	count := 0
	for _, b := range Benchmarks() {
		if b.Family != "BB" || count >= 3 {
			continue
		}
		c, err := ws.Code(b)
		if err != nil {
			return err
		}
		if c.N > cfg.maxN() {
			cfg.printf("%-18s   (skipped at this quality)\n", b.Name)
			continue
		}
		count++
		st, dcp, err := fig12Batch(cfg, ws, b, p)
		if err != nil {
			return err
		}
		mc := sim.MemoryConfig{
			Rounds: 1, Shots: cfg.shots(2000), MaxFailures: cfg.shots(2000) / 4,
			Workers: cfg.Workers, Seed: cfg.Seed, Tracer: cfg.Tracer,
		}
		rV := sim.RunMemory(st, func() core.Decoder {
			return core.NewVegapunkFrom(st, dcp, hier.Config{})
		}, mc)
		rN := sim.RunMemory(st, func() core.Decoder { return newGreedyNoDecouple(st) }, mc)
		imp := "n/a"
		if rV.LER > 0 {
			imp = fmtX(rN.LER / rV.LER)
		} else if rN.LER > 0 {
			imp = "> " + fmtX(rN.LER*float64(rV.Shots))
		}
		cfg.printf("%-18s %-22s %-26s %12s\n", b.Name,
			fmt.Sprintf("%.2e (%d/%d)", rV.LER, rV.Failures, rV.Shots),
			fmt.Sprintf("%.2e (%d/%d)", rN.LER, rN.Failures, rN.Shots), imp)
	}
	cfg.printf("(paper: decoupling improves accuracy 17.9x / 26.1x / 31.1x on three BB codes)\n\n")
	return nil
}

// fig12Batch builds the deep space-time batch Fig12 decodes for b at
// physical error rate p, 6·rounds(d) rounds of its per-round model, and
// decouples it.
func fig12Batch(cfg Config, ws *Workspace, b Benchmark, p float64) (*dem.Model, *decouple.Decoupling, error) {
	per, err := ws.Model(b, p)
	if err != nil {
		return nil, nil, err
	}
	st := dem.SpaceTime(per, cfg.rounds(b.Rounds)*6)
	dcp, err := decouple.Decouple(st.CheckMatrix(), decouple.Options{Seed: cfg.Seed})
	return st, dcp, err
}

// Fig13 reproduces the maximum-iteration ablation: latency (accelerator
// model, linear in M with early-stop flattening) and accuracy vs M for
// one BB and one HP code. Paper shape: large accuracy gain from M=1→2,
// sharply diminishing beyond M=3; latency crosses 1 µs near M=4 on the
// BB code.
func Fig13(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 13: ablation of the maximum iteration M ==\n")
	params := accel.DefaultParams()
	targets := []string{"BB [[288,12,18]]", "HP [[288,12,6]]"}
	if cfg.Quality == Quick {
		targets = []string{"BB [[72,12,6]]", "HP [[162,2,4]]"}
	}
	for _, t := range targets {
		b, ok := BenchmarkByName(t)
		if !ok {
			return fmt.Errorf("fig13: no benchmark %s", t)
		}
		dcp, err := ws.Decoupling(b)
		if err != nil {
			return err
		}
		cfg.printf("\n%s\n", b.Name)
		cfg.printf("%3s %16s %16s %-22s\n", "M", "FPGA wc latency", "FPGA avg latency", "per-round LER @ 0.2%")
		for m := 1; m <= 7; m++ {
			model, err := ws.Model(b, 2e-3)
			if err != nil {
				return err
			}
			mm := m
			fac := func() core.Decoder {
				return core.NewVegapunkFrom(model, dcp, hier.Config{MaxIters: mm})
			}
			r := sim.RunMemory(model, fac, sim.MemoryConfig{
				Rounds:  cfg.rounds(b.Rounds),
				Shots:   cfg.shots(500),
				Workers: cfg.Workers,
				Seed:    cfg.Seed + uint64(m),
				Tracer:  cfg.Tracer,
			})
			wc := params.VegapunkLatency(dcp, m, hier.InnerIters)
			avgOuter := int(r.MeanOuter + 0.999)
			if avgOuter < 1 {
				avgOuter = 1
			}
			avg := params.VegapunkLatency(dcp, avgOuter, max(r.MaxInnerIters, 1))
			cfg.printf("%3d %16v %16v %-22s\n", m, wc.Latency, avg.Latency, fmtLER(r))
		}
	}
	cfg.printf("\n(paper: latency grows linearly in M, flattening past M=5 by early stop;\n threshold gains collapse after M=3 — hence the production setting M=3)\n\n")
	return nil
}

// Fig14a reproduces the baseline-latency comparison: serial CPU decode
// latency of Vegapunk, BP+LSD and BPGD across physical error rates,
// averaged over the BB codes in budget. Paper: Vegapunk 147.6× faster
// than BP+LSD and 13.9× than BPGD on average, and much less sensitive
// to p.
func Fig14a(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 14a: serial CPU latency vs physical error rate (BB codes) ==\n")
	cfg.printf("%10s %24s %24s %24s\n", "p", DecVegapunk, DecBPLSD, DecBPGD)
	for _, p := range PaperPs {
		lats := map[string][]sim.LatencyResult{}
		for _, b := range Benchmarks() {
			if b.Family != "BB" {
				continue
			}
			c, err := ws.Code(b)
			if err != nil {
				return err
			}
			if c.N > cfg.maxN() {
				continue
			}
			model, err := ws.Model(b, p)
			if err != nil {
				return err
			}
			for _, dec := range []string{DecVegapunk, DecBPLSD, DecBPGD} {
				f, err := ws.factory(cfg, b, model, dec)
				if err != nil {
					return err
				}
				lats[dec] = append(lats[dec], sim.MeasureLatency(model, f(), cfg.shots(60), cfg.Seed))
			}
		}
		if len(lats) == 0 {
			continue
		}
		cfg.printf("%10.1e %24s %24s %24s\n", p, fmtLatency(poolLatency(lats[DecVegapunk])),
			fmtLatency(poolLatency(lats[DecBPLSD])), fmtLatency(poolLatency(lats[DecBPGD])))
	}
	cfg.printf("(each cell: mean ±std (n) over every timed decode of the BB codes in budget, one uninterleaved run)\n")
	cfg.printf("(paper: Vegapunk 147.6x faster than BP+LSD, 13.9x than BPGD, and flattest in p)\n\n")
	return nil
}

// Fig14b reproduces the baseline-threshold comparison on BB codes.
// Paper: Vegapunk 2.53× above BP+LSD and 7.11× above BPGD on average.
func Fig14b(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 14b: accuracy threshold vs BB code (Vegapunk / BP+LSD / BPGD) ==\n")
	cfg.printf("%-18s %14s %14s %14s\n", "code", DecVegapunk, DecBPLSD, DecBPGD)
	for _, b := range Benchmarks() {
		if b.Family != "BB" {
			continue
		}
		c, err := ws.Code(b)
		if err != nil {
			return err
		}
		if c.N > cfg.maxN() {
			cfg.printf("%-18s   (skipped at this quality)\n", b.Name)
			continue
		}
		cols := []string{}
		for _, dec := range []string{DecVegapunk, DecBPLSD, DecBPGD} {
			fit, _, err := ws.threshold(cfg, b, dec, 500)
			if err != nil {
				return err
			}
			cols = append(cols, fmtFit(fit))
		}
		cfg.printf("%-18s %14s %14s %14s\n", b.Name, cols[0], cols[1], cols[2])
	}
	cfg.printf("\n")
	return nil
}
