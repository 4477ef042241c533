// Package vegapunk is a from-scratch Go reproduction of Vegapunk
// (MICRO 2025): accurate and fast decoding for quantum LDPC codes with
// an offline SMT-style check-matrix decoupling, an online hierarchical
// greedy decoding algorithm, and a cycle-level model of the sparse
// hardware accelerator — together with every baseline the paper
// compares against (BP, BP+OSD, BP+LSD, BPGD), the Bivariate Bicycle
// and Hypergraph Product code constructions, noise models, and a
// Monte-Carlo logical-error-rate harness.
//
// # Quickstart
//
//	c, _ := vegapunk.BBCode(0)                       // [[72,12,6]]
//	model := vegapunk.CircuitLevelNoise(c, 0.001)    // per-round DEM
//	dec, _ := vegapunk.NewVegapunk(model, vegapunk.VegapunkOptions{})
//	syndrome := model.Syndrome(e)                    // e: sampled error
//	estimate, _ := dec.Decode(syndrome)
//
// See the examples/ directory for runnable end-to-end programs and
// cmd/experiments for the paper's tables and figures.
package vegapunk

import (
	"io"

	"vegapunk/internal/accel"
	"vegapunk/internal/circuit"
	"vegapunk/internal/code"
	"vegapunk/internal/core"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/serve"
	"vegapunk/internal/sim"
	"vegapunk/internal/window"
)

// Core re-exported types. Aliases keep the internal packages and the
// public façade interchangeable.
type (
	// CSS is a CSS quantum code ([[n,k,d]] with HX, HZ).
	CSS = code.CSS
	// Model is a per-round detector error model (mechanisms, priors,
	// observables).
	Model = dem.Model
	// Decoder is the uniform syndrome-decoder interface.
	Decoder = core.Decoder
	// Stats is per-decode execution metadata.
	Stats = core.Stats
	// Decoupling is the offline artifact D' = T·D·P = (diag(D_i) | A).
	Decoupling = decouple.Decoupling
	// DecoupleOptions tunes the offline search.
	DecoupleOptions = decouple.Options
	// VegapunkOptions tunes the online hierarchical decoder.
	VegapunkOptions = hier.Config
	// Vec is a GF(2) bit vector (syndromes, errors).
	Vec = gf2.Vec
	// Matrix is a dense GF(2) matrix.
	Matrix = gf2.Dense
	// LERResult reports a Monte-Carlo memory experiment.
	LERResult = sim.LERResult
	// MemoryConfig parameterizes a memory experiment.
	MemoryConfig = sim.MemoryConfig
	// ThresholdFit is an Eq. 17 accuracy-threshold fit.
	ThresholdFit = sim.ThresholdFit
	// AcceleratorParams holds the hardware model constants.
	AcceleratorParams = accel.Params
)

// ---- Codes ----

// BBCode constructs the i-th Bivariate Bicycle benchmark code
// (0 = [[72,12,6]] … 5 = [[784,24,24]]).
func BBCode(i int) (*CSS, error) { return code.NewBBByIndex(i) }

// NumBBCodes is the number of registered BB benchmark codes.
func NumBBCodes() int { return len(code.BBRegistry) }

// HPCode constructs the i-th Hypergraph Product benchmark code
// (0 = [[162,2,4]] … 5 = [[1488,30,7]]).
func HPCode(i int) (*CSS, error) { return code.NewHPByIndex(i) }

// NumHPCodes is the number of registered HP benchmark codes.
func NumHPCodes() int { return len(code.HPRegistry) }

// NewHPFromCirculants builds a hypergraph product code from two square
// circulant seed codes given by their sizes and exponent sets.
func NewHPFromCirculants(name string, l1 int, a1 []int, l2 int, a2 []int, d int) (*CSS, error) {
	return code.NewHP(name, code.Circulant(l1, a1), code.Circulant(l2, a2), d)
}

// ---- Noise models ----

// CodeCapacityNoise builds the simplest model: independent data-qubit
// errors, perfect measurement.
func CodeCapacityNoise(c *CSS, p float64) *Model { return dem.CodeCapacity(c, p) }

// PhenomenologicalNoise adds measurement errors (check matrix [H | I]),
// the paper's HP-code setting.
func PhenomenologicalNoise(c *CSS, p, q float64) *Model { return dem.Phenomenological(c, p, q) }

// CircuitLevelNoise builds the circuit-level-lite model with 5n error
// mechanisms per round, the paper's BB-code setting.
func CircuitLevelNoise(c *CSS, p float64) *Model { return dem.CircuitLevel(c, p) }

// ---- Offline stage ----

// Decouple runs the offline stage on an arbitrary check matrix.
func Decouple(D *Matrix, opts DecoupleOptions) (*Decoupling, error) {
	return decouple.Decouple(D, opts)
}

// SaveDecoupling writes the offline artifact (JSON).
func SaveDecoupling(d *Decoupling, w io.Writer) error {
	_, err := d.WriteTo(w)
	return err
}

// LoadDecoupling reads an artifact written by SaveDecoupling.
func LoadDecoupling(r io.Reader) (*Decoupling, error) { return decouple.Read(r) }

// ---- Decoders ----

// NewVegapunk builds the paper's decoder end to end: offline decoupling
// of the model's check matrix plus the online hierarchical decoder.
func NewVegapunk(model *Model, cfg VegapunkOptions) (Decoder, error) {
	return core.BuildVegapunk(model, decouple.Options{}, cfg)
}

// NewVegapunkWith builds the online decoder from a pre-computed
// decoupling artifact.
func NewVegapunkWith(model *Model, d *Decoupling, cfg VegapunkOptions) Decoder {
	return core.NewVegapunkFrom(model, d, cfg)
}

// NewBP builds the BP decoder vegapunkd serves as "bp": Relay-BP,
// min-sum that relays the syndromes it cannot solve through memory legs
// and returns the lightest of up to five solutions unless the first is
// provably minimal (maxIters caps each leg; ≤ 0 uses n).
func NewBP(model *Model, maxIters int) Decoder { return core.NewBP(model, maxIters) }

// NewMinSumBP builds the paper's plain belief-propagation baseline
// (min-sum; maxIters ≤ 0 uses n), the inaccurate one of figures 2, 3
// and 10.
func NewMinSumBP(model *Model, maxIters int) Decoder { return core.NewMinSumBP(model, maxIters) }

// NewBPOSD builds the BP+OSD-CS(t) accuracy baseline (order ≤ 0 uses
// the paper's t = 7).
func NewBPOSD(model *Model, bpIters, order int) Decoder { return core.NewBPOSD(model, bpIters, order) }

// NewBPLSD builds the BP+LSD baseline (30 BP iterations, order 0).
func NewBPLSD(model *Model) Decoder { return core.NewBPLSD(model) }

// NewBPGD builds the BP-guided-decimation baseline.
func NewBPGD(model *Model) Decoder { return core.NewBPGD(model, 0, 0) }

// ---- Evaluation ----

// RunMemory executes a multi-round quantum memory experiment and
// reports logical error rates.
func RunMemory(model *Model, factory func() Decoder, cfg MemoryConfig) LERResult {
	return sim.RunMemory(model, core.Factory(factory), cfg)
}

// FitThreshold fits the paper's Eq. 17 to (p, per-round LER) samples.
func FitThreshold(ps, pLs []float64) (ThresholdFit, error) { return sim.FitThreshold(ps, pLs) }

// DefaultAccelerator returns the hardware model calibrated against the
// paper's Table 2/4 anchors.
func DefaultAccelerator() AcceleratorParams { return accel.DefaultParams() }

// ---- Space-time and sliding-window decoding (extensions) ----

// SpaceTimeModel unrolls a per-round model over several rounds into one
// batch detector error model (syndrome-difference convention,
// measurement errors straddling consecutive rounds).
func SpaceTimeModel(m *Model, rounds int) *Model { return dem.SpaceTime(m, rounds) }

// CircuitParams sets physical fault strengths for the syndrome-
// extraction-circuit noise model.
type CircuitParams = circuit.Params

// CircuitMemoryDEM derives a memory experiment's detector error model
// from an explicitly scheduled syndrome-extraction circuit by exhaustive
// fault propagation (rounds noisy extraction rounds + one ideal
// readout).
func CircuitMemoryDEM(c *CSS, params CircuitParams, rounds int) (*Model, error) {
	return circuit.MemoryDEM(c, params, rounds)
}

// WindowConfig shapes sliding-window decoding.
type WindowConfig = window.Config

// WindowRunner decodes long syndrome streams with overlapping
// space-time windows.
type WindowRunner = window.Runner

// NewWindow builds a sliding-window runner over a per-round model; the
// factory constructs the inner decoder for the window's space-time
// model.
func NewWindow(per *Model, cfg WindowConfig, factory func(*Model) Decoder) (*WindowRunner, error) {
	return window.New(per, cfg, func(m *dem.Model) core.Decoder { return factory(m) })
}

// NewVec returns an all-zero GF(2) vector of length n (syndrome or
// error construction).
func NewVec(n int) Vec { return gf2.NewVec(n) }

// ---- Online decoding service ----

// ServeConfig shapes the decoding service (micro-batching, dispatch
// workers that each own one decoder, deadlines, quarantine); the zero
// value uses sensible defaults.
type ServeConfig = serve.Config

// DecodeServer is the decoding service: register models, then
// ListenAndServeWire for the binary wire protocol (and ListenAndServe
// for /v1/models and /metrics). See cmd/vegapunkd for the ready-made
// daemon.
type DecodeServer = serve.Server

// DecodeService is one registered model's decode queue, usable directly
// from Go without a listener.
type DecodeService = serve.Service

// DecodeResult is a caller-owned decode result; reuse one across calls
// for allocation-free steady-state serving.
type DecodeResult = serve.Result

// NewDecodeServer builds an empty decoding service; register models via
// (*DecodeServer).Register before serving.
func NewDecodeServer(cfg ServeConfig) *DecodeServer { return serve.NewServer(cfg) }

// ServeModelKey derives the canonical model registry key used by
// cmd/vegapunkd and cmd/decodeload.
func ServeModelKey(codeName, decoderName string, p float64) string {
	return serve.ModelKey(codeName, decoderName, p)
}
