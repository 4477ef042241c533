// Package accel models the Vegapunk hardware accelerator (paper §5) at
// cycle granularity, plus the reference BP FPGA architecture [42]. It
// converts decoupled-matrix structure and online-decode traces into the
// latency and resource numbers of the paper's Table 2, Table 4 and
// Figures 3b, 11b, 13.
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

// The cycle and resource model's constants, calibrated against the
// paper's reported BB-code latencies and utilizations.
const (
	// pipelineFill is the per-unit pipeline fill overhead in cycles.
	pipelineFill = 2
	// regfilePorts is the number of parallel regfile write ports of a
	// syndrome incremental update unit.
	regfilePorts = 1
	// updateCycles is the params-update unit cost per outer iteration.
	updateCycles = 2
	// permuteCycles is the permutation unit cost (pure routing).
	permuteCycles = 2

	// ffBase/ffPerState and lutBase/lutPerNNZ/lutPerCol are the linear
	// resource model coefficients, calibrated against the paper's
	// Table 4 BB anchors.
	ffBase     = 10600
	ffPerState = 7.0
	lutBase    = 13700
	lutPerNNZ  = 45
	lutPerCol  = 40

	// u50FFs and u50LUTs are the Alveo U50 totals used for utilization
	// percentages.
	u50FFs  = 1743360
	u50LUTs = 871680

	// bpCyclesPerIter is the reference BP architecture's cost (2 cycles
	// per iteration, from [42]); bpFixedCycles covers syndrome load and
	// readout.
	bpCyclesPerIter = 2
	bpFixedCycles   = 10
)

// Params is the model's receiver. It has no fields: the calibration is
// the constants above. The type and DefaultParams stay because the
// benchmark harness (benchmark/ledger.go) calls the model through them
// and is kept byte-stable.
type Params struct{}

// DefaultParams returns the model.
func DefaultParams() Params { return Params{} }

// Report is a latency estimate.
type Report struct {
	Cycles  int
	Latency time.Duration
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
	// ① Transformation unit: all m output bits in parallel, each a
	// binary XOR reduction over the row support of T.
	transform := log2ceil(maxRowWeight(dec)+1) + pipelineFill

	// Per outer iteration (all n_A HDUs in parallel):
	aSpars, bSpars := dec.Sparsity()
	// ② syndrome incremental update: sparse XOR of one A column.
	hdu := (aSpars+regfilePorts-1)/regfilePorts + pipelineFill
	// ② GDC: innerIters sequential greedy rounds; each round updates f
	// through the block's sparse column (S_B), evaluates the objective
	// with an adder tree over the block width, and picks the best flip
	// with a comparator tree over the candidate g bits.
	nG := dec.ND - dec.MD
	gdcRound := (bSpars+regfilePorts-1)/regfilePorts +
		log2ceil(dec.ND) + log2ceil(nG+1)
	gdc := innerIters*gdcRound + pipelineFill
	// ② LLR compute for the assembled candidate: adder tree over the
	// active weights.
	llr := log2ceil(dec.N) + pipelineFill
	// ③ comparator tree over the n_A candidate objectives.
	cmp := log2ceil(dec.NA + 1)
	// ④ params update.
	outer := hdu + gdc + llr + cmp + updateCycles

	// ⑤ permutation unit.
	total := transform + outer*outerIters + permuteCycles
	return Report{
		Cycles:  total,
		Latency: time.Duration(float64(total) * ClockNS * float64(time.Nanosecond)),
	}
}

// WorstCase reports the Table 2 "worst case" latency: every outer round
// executes with the configured maxima.
func (p Params) WorstCase(dec *decouple.Decoupling, cfg hier.Config) Report {
	m := cfg.MaxIters
	if m <= 0 {
		m = hier.DefaultMaxIters
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
	cycles := bpFixedCycles + iters*bpCyclesPerIter
	return time.Duration(cycles * ClockNS * float64(time.Nanosecond))
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
	ffs := ffBase + ffPerState*state
	luts := lutBase + lutPerNNZ*float64(dec.NNZ()) + lutPerCol*float64(dec.N)
	return Utilization{
		FFs:    int(ffs),
		LUTs:   int(luts),
		FFPct:  100 * ffs / u50FFs,
		LUTPct: 100 * luts / u50LUTs,
	}
}

// MaxSupportedColumns inverts the LUT model at 100% utilization (the
// paper's §6.3 capacity analysis, reported as ≈1.26×10⁴ columns for the
// U50). The nnz term is approximated by the given average column weight.
func (p Params) MaxSupportedColumns(avgColWeight float64) int {
	perCol := lutPerNNZ*avgColWeight + lutPerCol
	return int((u50LUTs - lutBase) / perCol)
}
