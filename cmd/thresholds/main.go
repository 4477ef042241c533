// Command thresholds runs high-statistics accuracy-threshold fits
// (Eq. 17) for the smaller benchmark codes — the slow, precise
// counterpart to `experiments -run table2`. Results for this repository
// are checked in as results_thresholds.txt.
//
//	thresholds -shots 6000 -maxn 300 > results_thresholds.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/exp"
	"vegapunk/internal/hier"
	"vegapunk/internal/sim"
)

func main() {
	var (
		shots    = flag.Int("shots", 6000, "shots per sweep point (BP+OSD uses half)")
		maxN     = flag.Int("maxn", 300, "largest code size to fit")
		maxRound = flag.Int("rounds", 6, "cap on memory rounds")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel workers")
		seed     = flag.Uint64("seed", 99, "random seed")
	)
	flag.Parse()

	ws := exp.NewWorkspace()
	ps := exp.PaperPs
	for _, b := range exp.Benchmarks() {
		c, err := ws.Code(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if c.N > *maxN {
			continue
		}
		rounds := b.Rounds
		if rounds > *maxRound {
			rounds = *maxRound
		}
		fmt.Printf("%s (rounds=%d):\n", b.Name, rounds)
		dcp, err := ws.Decoupling(b)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, decName := range []string{"BP", "BP+OSD", "Vegapunk"} {
			t0 := time.Now()
			var pls []float64
			var rows string
			for _, p := range ps {
				model, err := ws.Model(b, p)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				var f core.Factory
				n := *shots
				switch decName {
				case "BP":
					f = func() core.Decoder { return core.NewMinSumBP(model, 200) }
				case "BP+OSD":
					f = func() core.Decoder { return core.NewBPOSD(model, 200, 7) }
					n = *shots / 2
				default:
					f = func() core.Decoder { return core.NewVegapunkFrom(model, dcp, hier.Config{}) }
				}
				r := sim.RunMemory(model, f, sim.MemoryConfig{
					Rounds: rounds, Shots: n, MaxFailures: 400,
					Workers: *workers, Seed: *seed,
				})
				pls = append(pls, r.PerRound)
				rows += fmt.Sprintf(" %.2e(%d/%d)", r.PerRound, r.Failures, r.Shots)
			}
			fit, err := sim.FitThreshold(ps, pls)
			fitStr := "n/a"
			switch {
			case err != nil:
			case fit.K > 1.02 && fit.Pt < 0.2:
				fitStr = fmt.Sprintf("pt=%.4f%% k=%.2f ±%.4f%%", 100*fit.Pt, fit.K, 100*fit.PtErr)
			default:
				fitStr = fmt.Sprintf("n/a (k=%.2f)", fit.K)
			}
			fmt.Printf("  %-8s%s  | %s  [%.0fs]\n", decName, rows, fitStr, time.Since(t0).Seconds())
		}
	}
}
