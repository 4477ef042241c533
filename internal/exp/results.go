package exp

import (
	"fmt"
	"math"
	"strings"

	"vegapunk/internal/accel"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/sim"
)

// Table2 reproduces the paper's headline table: per code, the decoupled
// check matrix structure (A shape, D_i shape, K, sparsities), the
// accuracy thresholds of BP / BP+OSD-CS(7) / Vegapunk, and the per-round
// decoding latency at 0.5% noise (BP on the FPGA model, BP+OSD on the
// host CPU, Vegapunk on host CPU + GPU model + FPGA worst-case model).
func Table2(cfg Config, ws *Workspace) error {
	cfg.printf("== Table 2: codes, decoupled matrices, thresholds, latency per round ==\n\n")
	cfg.printf("--- Decoupled check matrices (offline stage, all codes) ---\n")
	cfg.printf("%-18s %-12s %-16s %-16s %4s\n", "code", "D shape", "A shape(spars)", "Di shape(spars)", "K")
	for _, b := range Benchmarks() {
		dcp, err := ws.Decoupling(b)
		if err != nil {
			return err
		}
		aS, bS := dcp.Sparsity()
		cfg.printf("%-18s %-12s %-16s %-16s %4d\n", b.Name,
			fmt.Sprintf("[%d,%d]", dcp.M, dcp.N),
			fmt.Sprintf("[%d,%d] (%d)", dcp.M, dcp.NA, aS),
			fmt.Sprintf("[%d,%d] (%d)", dcp.MD, dcp.ND, bS),
			dcp.K)
	}

	cfg.printf("\n--- Accuracy thresholds (Eq. 17 fits over p in [5e-4, 5e-3]) ---\n")
	cfg.printf("%-18s %12s %12s %12s\n", "code", "BP", "BP+OSD", "Vegapunk")
	for _, b := range Benchmarks() {
		c, err := ws.Code(b)
		if err != nil {
			return err
		}
		if c.N > cfg.maxN() {
			cfg.printf("%-18s   (skipped at this quality)\n", b.Name)
			continue
		}
		row := []string{}
		for _, dec := range []string{DecBP, DecBPOSD, DecVegapunk} {
			fit, _, err := ws.threshold(cfg, b, dec, 600)
			if err != nil {
				return err
			}
			row = append(row, fmtFit(fit))
		}
		cfg.printf("%-18s %12s %12s %12s\n", b.Name, row[0], row[1], row[2])
	}

	cfg.printf("\n--- Latency per round (0.5%% noise) ---\n")
	cfg.printf("%-18s %12s %14s | %14s %12s %14s\n",
		"code", "BP FPGA", "BP+OSD CPU", "Vegapunk CPU", "Vgpk GPU*", "Vgpk FPGA(wc)")
	params := accel.DefaultParams()
	const p = 5e-3
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
		dcp, err := ws.Decoupling(b)
		if err != nil {
			return err
		}
		rBP, err := ws.runLER(cfg, b, DecBP, p, 150)
		if err != nil {
			return err
		}
		fOSD, err := ws.factory(cfg, b, model, DecBPOSD)
		if err != nil {
			return err
		}
		fV, err := ws.factory(cfg, b, model, DecVegapunk)
		if err != nil {
			return err
		}
		latOSD := sim.MeasureLatency(model, fOSD(), cfg.shots(40), cfg.Seed)
		latV := sim.MeasureLatency(model, fV(), cfg.shots(80), cfg.Seed)
		wc := params.WorstCase(dcp, hier.Config{MaxIters: 3})
		cfg.printf("%-18s %12v %14v | %14v %12v %14v\n", b.Name,
			params.BPLatency(rBP.MeanBPIters), latOSD.Mean,
			latV.Mean, params.GPULatency(model.NumMech()), wc.Latency)
	}
	cfg.printf("(*analytic model — no GPU hardware in this reproduction; see DESIGN.md)\n\n")
	return nil
}

// Table3 reproduces the visual examples of decoupled matrices: ASCII
// density plots of the off-diagonal matrix A and the first diagonal
// block D_1 for the paper's four showcase codes.
func Table3(cfg Config, ws *Workspace) error {
	cfg.printf("== Table 3: visual examples of decoupled check matrices ==\n")
	showcase := map[string]bool{
		"BB [[72,12,6]]":  true,
		"BB [[108,8,10]]": true,
		"HP [[338,2,4]]":  true,
		"HP [[288,12,6]]": true,
	}
	for _, b := range Benchmarks() {
		if !showcase[b.Name] {
			continue
		}
		cfg.printf("\n")
		if err := DumpDecoupling(cfg, ws, b); err != nil {
			return err
		}
	}
	cfg.printf("\n")
	return nil
}

// asciiMatrix renders a downsampled density plot: '#' for dense cells,
// '+' for sparse ones, '.' for empty.
func asciiMatrix(m *gf2.Dense, maxW, maxH int) string {
	rows, cols := m.Rows(), m.Cols()
	h, w := rows, cols
	if h > maxH {
		h = maxH
	}
	if w > maxW {
		w = maxW
	}
	var sb strings.Builder
	for y := 0; y < h; y++ {
		r0, r1 := y*rows/h, (y+1)*rows/h
		if r1 == r0 {
			r1 = r0 + 1
		}
		for x := 0; x < w; x++ {
			c0, c1 := x*cols/w, (x+1)*cols/w
			if c1 == c0 {
				c1 = c0 + 1
			}
			nnz := 0
			for i := r0; i < r1; i++ {
				for j := c0; j < c1; j++ {
					if m.At(i, j) {
						nnz++
					}
				}
			}
			cells := (r1 - r0) * (c1 - c0)
			switch {
			case nnz == 0:
				sb.WriteByte('.')
			case nnz*2 >= cells:
				sb.WriteByte('#')
			default:
				sb.WriteByte('+')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig10 reproduces the LER sweeps: per-round logical error rate of BP,
// BP+OSD-CS(7) and Vegapunk (M=3) for every code across the paper's
// physical error rates.
func Fig10(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 10: per-round LER sweeps (BP vs BP+OSD-CS(7) vs Vegapunk) ==\n")
	for _, b := range Benchmarks() {
		c, err := ws.Code(b)
		if err != nil {
			return err
		}
		if c.N > cfg.maxN() {
			cfg.printf("%-18s (skipped at this quality)\n", b.Name)
			continue
		}
		cfg.printf("\n%s (rounds=%d)\n", b.Name, cfg.rounds(b.Rounds))
		cfg.printf("%10s %22s %22s %22s\n", "p", DecBP, DecBPOSD, DecVegapunk)
		series := map[string][]sim.LERResult{}
		for _, dec := range []string{DecBP, DecBPOSD, DecVegapunk} {
			rs, err := ws.sweep(cfg, b, dec, 800)
			if err != nil {
				return err
			}
			series[dec] = rs
		}
		for i, p := range PaperPs {
			cfg.printf("%10.1e %22s %22s %22s\n", p,
				fmtLER(series[DecBP][i]), fmtLER(series[DecBPOSD][i]), fmtLER(series[DecVegapunk][i]))
		}
	}
	cfg.printf("\n(paper: Vegapunk tracks BP+OSD-CS(7), beating it on several codes; BP is far above both)\n\n")
	return nil
}

// Fig11a reproduces the threshold-scaling plot: accuracy threshold vs
// BB code distance for BP, BP+OSD and Vegapunk. Paper shape: Vegapunk
// and BP+OSD rise with distance, BP falls.
func Fig11a(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 11a: accuracy threshold vs BB code distance ==\n")
	cfg.printf("%-18s %4s %14s %14s %14s\n", "code", "d", "BP", "BP+OSD", "Vegapunk")
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
		for _, dec := range []string{DecBP, DecBPOSD, DecVegapunk} {
			fit, _, err := ws.threshold(cfg, b, dec, 600)
			if err != nil {
				return err
			}
			if fit.K > 1.02 && fit.Pt > 1e-6 && fit.Pt < 0.2 {
				cols = append(cols, fmt.Sprintf("%s±%.3f%%", fmtPct(fit.Pt), 100*fit.PtErr))
			} else {
				cols = append(cols, fmtFit(fit))
			}
		}
		cfg.printf("%-18s %4d %14s %14s %14s\n", b.Name, c.D, cols[0], cols[1], cols[2])
	}
	cfg.printf("\n")
	return nil
}

// Fig11b reproduces the latency-scaling plot: modeled FPGA decode
// latency vs check-matrix column count for Vegapunk and BP, with the
// std-dev across physical error rates. Paper shape: Vegapunk ~flat
// (logarithmic), BP linear and crossing 1 µs near 5×10² columns.
func Fig11b(cfg Config, ws *Workspace) error {
	cfg.printf("== Figure 11b: decoding latency vs check matrix size ==\n")
	cfg.printf("%-18s %8s %16s %22s\n", "code", "columns", "Vegapunk FPGA", "BP FPGA (mean±std)")
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
		// Vegapunk: trace-driven latency across the p sweep.
		var vLat []float64
		var bpLat []float64
		for _, p := range PaperPs {
			rV, err := ws.runLER(cfg, b, DecVegapunk, p, 100)
			if err != nil {
				return err
			}
			outer := int(rV.MeanOuter + 0.999)
			inner := rV.MaxInnerIters
			rep := params.VegapunkLatency(dcp, outer, inner)
			vLat = append(vLat, float64(rep.Latency.Nanoseconds()))
			rBP, err := ws.runLER(cfg, b, DecBP, p, 100)
			if err != nil {
				return err
			}
			bpLat = append(bpLat, float64(params.BPLatency(rBP.MeanBPIters).Nanoseconds()))
		}
		vm, vs := meanStd(vLat)
		bm, bs := meanStd(bpLat)
		cfg.printf("%-18s %8d %11.0f±%-4.0fns %15.0f±%-6.0fns\n", b.Name, dcp.N, vm, vs, bm, bs)
	}
	cfg.printf("(paper: Vegapunk std 62.6 vs BP 1080.8 — BP latency is far more sensitive to p)\n\n")
	return nil
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = std / float64(len(xs))
	return mean, math.Sqrt(std)
}

// Table4 reproduces the FPGA utilization table from the resource model.
func Table4(cfg Config, ws *Workspace) error {
	cfg.printf("== Table 4: FPGA utilization (Alveo U50 model) ==\n")
	cfg.printf("%-18s %12s %10s %12s %10s\n", "code", "FFs", "FF%", "LUTs", "LUT%")
	params := accel.DefaultParams()
	for _, b := range Benchmarks() {
		dcp, err := ws.Decoupling(b)
		if err != nil {
			return err
		}
		u := params.VegapunkUtilization(dcp)
		cfg.printf("%-18s %12d %9.2f%% %12d %9.2f%%\n", b.Name, u.FFs, u.FFPct, u.LUTs, u.LUTPct)
	}
	cfg.printf("max supported columns at 100%% LUTs (avg col weight 3): %d (paper: ~12600)\n\n",
		params.MaxSupportedColumns(3))
	return nil
}

// DumpDecoupling prints one code's Table 3 density plots (for Table3
// and the vegapunk CLI's dump subcommand).
func DumpDecoupling(cfg Config, ws *Workspace, b Benchmark) error {
	dcp, err := ws.Decoupling(b)
	if err != nil {
		return err
	}
	cfg.printf("%s  (K=%d blocks of [%d,%d], A is [%d,%d])\n",
		b.Name, dcp.K, dcp.MD, dcp.ND, dcp.M, dcp.NA)
	cfg.printf("off-diagonal matrix A:\n%s\n", asciiMatrix(dcp.A.ToDense(), 60, 20))
	first := gf2.HStack(gf2.Eye(dcp.MD), dcp.Blocks[0].ToDense())
	cfg.printf("diagonal block D_1 = (I|B):\n%s\n", asciiMatrix(first, 60, 20))
	return nil
}
