// Package accel models the Vegapunk hardware accelerator (paper §5) at
// cycle granularity, plus the reference BP FPGA architecture [42] and
// analytic CPU/GPU cost models. It converts decoupled-matrix structure
// and online-decode traces into the latency and resource numbers of the
// paper's Table 2, Table 4 and Figures 3b, 11b, 13.
//
// The model is architectural, not RTL: each pipeline unit of Figure 7 is
// charged cycles derived from its dataflow — sparse XOR counts for the
// syndrome incremental update units, logarithmic depths for adder and
// comparator trees — at the paper's 250 MHz clock. Absolute numbers are
// therefore estimates; the scaling behaviour (latency insensitive to
// code size, proportional to column sparsity) is the reproduced claim.
package accel

import (
	"math"
	"time"

	"vegapunk/internal/decouple"
	"vegapunk/internal/hier"
)

// ClockNS is the cycle time at the paper's 250 MHz.
const ClockNS = 4.0

// Params holds the cycle and resource model constants.
type Params struct {
	// PipelineFill is the per-unit pipeline fill overhead in cycles.
	PipelineFill int
	// RegfilePorts is the number of parallel regfile write ports of a
	// syndrome incremental update unit.
	RegfilePorts int
	// UpdateCycles is the params-update unit cost per outer iteration.
	UpdateCycles int
	// PermuteCycles is the permutation unit cost (pure routing).
	PermuteCycles int

	// FFBase/FFPerState and LUTBase/LUTPerNNZ/LUTPerCol are the linear
	// resource model coefficients, calibrated against the paper's
	// Table 4 BB anchors.
	FFBase     float64
	FFPerState float64
	LUTBase    float64
	LUTPerNNZ  float64
	LUTPerCol  float64

	// U50FFs and U50LUTs are the Alveo U50 totals used for utilization
	// percentages.
	U50FFs, U50LUTs float64

	// BPCyclesPerIter is the reference BP architecture's cost (2 cycles
	// per iteration, from [42]); BPFixedCycles covers syndrome load and
	// readout.
	BPCyclesPerIter, BPFixedCycles int

	// GPULaunchNS and GPUPerMechNS form the GPU latency model: kernel
	// launch overhead plus occupancy-limited per-mechanism cost.
	GPULaunchNS, GPUPerMechNS float64
}

// DefaultParams returns constants calibrated against the paper's
// reported BB-code latencies and utilizations.
func DefaultParams() Params {
	return Params{
		PipelineFill:  2,
		RegfilePorts:  1,
		UpdateCycles:  2,
		PermuteCycles: 2,

		FFBase:     10600,
		FFPerState: 7.0,
		LUTBase:    13700,
		LUTPerNNZ:  45,
		LUTPerCol:  40,

		U50FFs:  1743360,
		U50LUTs: 871680,

		BPCyclesPerIter: 2,
		BPFixedCycles:   10,

		GPULaunchNS:  68000,
		GPUPerMechNS: 12,
	}
}

// Report is a latency estimate with a per-unit cycle breakdown.
type Report struct {
	Cycles    int
	Latency   time.Duration
	Breakdown map[string]int
}

func log2ceil(x int) int {
	if x <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(x))))
}

// maxRowWeight of the transformation T (for the transformation unit's
// XOR reduction tree depth).
func maxRowWeight(dec *decouple.Decoupling) int {
	best := 1
	for i := 0; i < dec.T.Rows(); i++ {
		if w := dec.T.RowWeight(i); w > best {
			best = w
		}
	}
	return best
}

// VegapunkLatency estimates the accelerator's decode latency for
// outerIters outer rounds with innerIters GreedyGuess rounds per block.
// Pass the configured maxima for the worst case (Table 2) or trace
// observations for typical latency.
func (p Params) VegapunkLatency(dec *decouple.Decoupling, outerIters, innerIters int) Report {
	if outerIters < 1 {
		outerIters = 1
	}
	if innerIters < 1 {
		innerIters = 1
	}
	br := map[string]int{}

	// ① Transformation unit: all m output bits in parallel, each a
	// binary XOR reduction over the row support of T.
	br["transform"] = log2ceil(maxRowWeight(dec)+1) + p.PipelineFill

	// Per outer iteration (all n_A HDUs in parallel):
	aSpars, bSpars := dec.Sparsity()
	// ② syndrome incremental update: sparse XOR of one A column.
	hdu := (aSpars+p.RegfilePorts-1)/p.RegfilePorts + p.PipelineFill
	// ② GDC: innerIters sequential greedy rounds; each round updates f
	// through the block's sparse column (S_B), evaluates the objective
	// with an adder tree over the block width, and picks the best flip
	// with a comparator tree over the candidate g bits.
	nG := dec.ND - dec.MD
	gdcRound := (bSpars+p.RegfilePorts-1)/p.RegfilePorts +
		log2ceil(dec.ND) + log2ceil(nG+1)
	gdc := innerIters*gdcRound + p.PipelineFill
	// ② LLR compute for the assembled candidate: adder tree over the
	// active weights.
	llr := log2ceil(dec.N) + p.PipelineFill
	// ③ comparator tree over the n_A candidate objectives.
	cmp := log2ceil(dec.NA + 1)
	// ④ params update.
	outer := hdu + gdc + llr + cmp + p.UpdateCycles
	br["outer-per-iter"] = outer
	br["outer-total"] = outer * outerIters

	// ⑤ permutation unit.
	br["permute"] = p.PermuteCycles

	total := br["transform"] + br["outer-total"] + br["permute"]
	return Report{
		Cycles:    total,
		Latency:   time.Duration(float64(total) * ClockNS * float64(time.Nanosecond)),
		Breakdown: br,
	}
}

// WorstCase reports the Table 2 "worst case" latency: every outer round
// executes with the configured maxima.
func (p Params) WorstCase(dec *decouple.Decoupling, cfg hier.Config) Report {
	m := cfg.MaxIters
	if m <= 0 {
		m = 3
	}
	return p.VegapunkLatency(dec, m, hier.InnerIters)
}

// FromTrace reports the latency of an observed decode.
func (p Params) FromTrace(dec *decouple.Decoupling, tr hier.Trace) Report {
	outer := tr.OuterIters
	if outer < 1 {
		outer = 1
	}
	inner := tr.MaxInnerIters
	if inner < 1 {
		inner = 1
	}
	return p.VegapunkLatency(dec, outer, inner)
}

// BPLatency models the reference FPGA BP decoder [42]: two cycles per
// message-passing iteration plus fixed I/O.
func (p Params) BPLatency(iters float64) time.Duration {
	cycles := float64(p.BPFixedCycles) + iters*float64(p.BPCyclesPerIter)
	return time.Duration(cycles * ClockNS * float64(time.Nanosecond))
}

// GPULatency models a GPU port: launch overhead dominates, with an
// occupancy-limited per-mechanism term (paper §6.2's observed 69–116 µs
// band).
func (p Params) GPULatency(numMech int) time.Duration {
	ns := p.GPULaunchNS + float64(numMech)*p.GPUPerMechNS
	return time.Duration(ns * float64(time.Nanosecond))
}

// Utilization is the FPGA resource estimate of Table 4.
type Utilization struct {
	FFs, LUTs     int
	FFPct, LUTPct float64
}

// VegapunkUtilization estimates FPGA resources for a decoupling: FFs
// scale with the register state (syndromes, right error, left error),
// LUTs with the sparse XOR/LLR logic (nonzeros) and the comparator
// fan-in (columns).
func (p Params) VegapunkUtilization(dec *decouple.Decoupling) Utilization {
	state := float64(dec.M + dec.NA + dec.K*dec.ND)
	ffs := p.FFBase + p.FFPerState*state
	luts := p.LUTBase + p.LUTPerNNZ*float64(dec.NNZ()) + p.LUTPerCol*float64(dec.N)
	return Utilization{
		FFs:    int(ffs),
		LUTs:   int(luts),
		FFPct:  100 * ffs / p.U50FFs,
		LUTPct: 100 * luts / p.U50LUTs,
	}
}

// MaxSupportedColumns inverts the LUT model at 100% utilization (the
// paper's §6.3 capacity analysis, reported as ≈1.26×10⁴ columns for the
// U50). The nnz term is approximated by the given average column weight.
func (p Params) MaxSupportedColumns(avgColWeight float64) int {
	perCol := p.LUTPerNNZ*avgColWeight + p.LUTPerCol
	return int((p.U50LUTs - p.LUTBase) / perCol)
}
