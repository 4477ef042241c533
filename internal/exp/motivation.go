package exp

import (
	"fmt"
	"time"

	"vegapunk/internal/accel"
	"vegapunk/internal/hier"
	"vegapunk/internal/sim"
)

// Fig2 reproduces Figure 2: the LER increase caused by quantum
// degeneracy, measured as LER(BP)/LER(BP+OSD) at 0.1% noise across BB
// and HP codes. The paper reports average increases of 320.3× (BB) and
// 5.1× (HP), growing with n−m.
func Fig2(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 2: LER increase due to quantum degeneracy (p = 0.1%%) ==\n")
	cfg.printf("%-18s %6s  %-22s %-22s %10s\n", "code", "n-m", "BP per-round LER", "BP+OSD per-round LER", "increase")
	const p = 1e-3
	for _, b := range Benchmarks() {
		c, err := ws.Code(b)
		if err != nil {
			return err
		}
		if c.N > cfg.maxN() {
			cfg.printf("%-18s   (skipped at this quality)\n", b.Name)
			continue
		}
		model, err := ws.Model(b, p)
		if err != nil {
			return err
		}
		nm := model.NumMech() - model.NumDet
		rBP, err := ws.runLER(cfg, b, DecBP, p, 1200)
		if err != nil {
			return err
		}
		rOSD, err := ws.runLER(cfg, b, DecBPOSD, p, 1200)
		if err != nil {
			return err
		}
		inc := "n/a"
		if rOSD.PerRound > 0 {
			inc = fmtX(rBP.PerRound / rOSD.PerRound)
		} else if rBP.PerRound > 0 {
			inc = "> " + fmtX(rBP.PerRound*float64(rOSD.Shots))
		}
		cfg.printf("%-18s %6d  %-22s %-22s %10s\n", b.Name, nm, fmtLER(rBP), fmtLER(rOSD), inc)
	}
	cfg.printf("(paper: BP's degeneracy blindness costs 320.3x on BB codes, 5.1x on HP codes on average,\n growing with n-m)\n\n")
	return nil
}

// Fig3a reproduces Figure 3(a): per-round LER of BP capped to the 1 µs
// budget (125 iterations), unbounded BP, and BP+OSD across BB codes at
// p = 0.001. The paper's shape: BP worsens with code size while BP+OSD
// improves; the cap worsens BP further.
func Fig3a(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 3a: motivation LER on BB codes (p = 0.1%%) ==\n")
	cfg.printf("%-18s %-22s %-22s %-22s\n", "code", "BP(125) LER", "BP LER", "BP+OSD LER")
	const p = 1e-3
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
		rCap, err := ws.runLER(cfg, b, DecBPCapped, p, 1000)
		if err != nil {
			return err
		}
		rBP, err := ws.runLER(cfg, b, DecBP, p, 1000)
		if err != nil {
			return err
		}
		rOSD, err := ws.runLER(cfg, b, DecBPOSD, p, 1000)
		if err != nil {
			return err
		}
		cfg.printf("%-18s %-22s %-22s %-22s\n", b.Name, fmtLER(rCap), fmtLER(rBP), fmtLER(rOSD))
	}
	cfg.printf("(paper: BP LER grows with code size — 1649.5x above BP+OSD at [[784,24,24]])\n\n")
	return nil
}

// Fig3b reproduces Figure 3(b): per-round decoding latency of BP (on
// the reference FPGA architecture, 2 cycles/iteration) and BP+OSD (on
// the CPU) against the 1 µs real-time boundary.
func Fig3b(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 3b: motivation latency on BB codes (p = 0.1%%) ==\n")
	cfg.printf("%-18s %14s %14s %26s\n", "code", "BP iters(mean)", "BP FPGA", "BP+OSD CPU ±std (n)")
	params := accel.DefaultParams()
	const p = 1e-3
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
		rBP, err := ws.runLER(cfg, b, DecBP, p, 400)
		if err != nil {
			return err
		}
		model, err := ws.Model(b, p)
		if err != nil {
			return err
		}
		f, err := ws.factory(cfg, b, model, DecBPOSD)
		if err != nil {
			return err
		}
		lat := sim.MeasureLatency(model, f(), cfg.shots(60), cfg.Seed)
		cfg.printf("%-18s %14.1f %14v %26s\n",
			b.Name, rBP.MeanBPIters, params.BPLatency(rBP.MeanBPIters), fmtLatency(lat))
	}
	cfg.printf("(paper: BP crosses 1µs beyond [[72,12,6]]; BP+OSD needs ~10^3µs even on the smallest code)\n\n")
	return nil
}

// Table1 prints the paper's complexity table and validates the headline
// scaling empirically: Vegapunk's modeled FPGA latency grows ~log n
// while BP's grows ~linearly.
func Table1(cfg Config, ws *Workspace) error {
	cfg.printf("== Table 1: time complexity (P parallel units, S column sparsity, M_bp BP iters) ==\n")
	cfg.printf("%-10s %-42s %-30s\n", "method", "serial (limited P)", "parallel (sufficient P)")
	cfg.printf("%-10s %-42s %-30s\n", "BP", "O(M_bp n/P)", "O(M_bp)")
	cfg.printf("%-10s %-42s %-30s\n", "BP+LSD", "O(M_bp n/P + (polylog(n)+k^3) (n/k)/P)", "O(M_bp + polylog(n) + k^3)")
	cfg.printf("%-10s %-42s %-30s\n", "BPGD", "O(n M_bp n/P)", "O(n M_bp)")
	cfg.printf("%-10s %-42s %-30s\n", "Vegapunk", "O(n/P log n + nK/P S)", "O(log n + S)")
	cfg.printf("\nEmpirical parallel-model scaling (cycles at M=3):\n")
	cfg.printf("%-18s %8s %14s %14s\n", "code", "columns", "Vegapunk cyc", "BP cyc (mean)")
	params := accel.DefaultParams()
	for _, b := range Benchmarks() {
		c, err := ws.Code(b)
		if err != nil {
			return err
		}
		if c.N > cfg.maxN() {
			continue
		}
		dcp, err := ws.Decoupling(b)
		if err != nil {
			return err
		}
		rep := params.WorstCase(dcp, hier.Config{})
		rBP, err := ws.runLER(cfg, b, DecBP, 1e-3, 200)
		if err != nil {
			return err
		}
		bpCycles := int(params.BPLatency(float64(int(rBP.MeanBPIters))) / (accel.ClockNS * time.Nanosecond))
		cfg.printf("%-18s %8d %14d %14d\n", b.Name, dcp.N, rep.Cycles, bpCycles)
	}
	cfg.printf("\n")
	return nil
}

func fmtX(x float64) string {
	switch {
	case x >= 100:
		return fmt.Sprintf("%.0fx", x)
	case x >= 10:
		return fmt.Sprintf("%.1fx", x)
	default:
		return fmt.Sprintf("%.2fx", x)
	}
}
