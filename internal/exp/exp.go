// Package exp defines one runner per table/figure of the paper's
// evaluation section (§6). Each runner prints the same rows or series
// the paper reports, at a configurable Monte-Carlo budget.
//
// Absolute numbers differ from the paper — the noise substrate is our
// circuit-level-lite model rather than Stim, and "CPU" is the host — but
// each runner reproduces the paper's comparisons: who wins, by roughly
// what factor, and how the trend moves with code size, sparsity,
// physical error rate, and iteration budget. EXPERIMENTS.md records
// paper-vs-measured for every run.
package exp

import (
	"fmt"
	"io"
	"sync"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/obs"
)

// Quality selects the Monte-Carlo budget.
type Quality int

// Budget levels.
const (
	// Quick is the bench-friendly budget: small codes, few shots.
	Quick Quality = iota
	// Normal covers all codes at a few hundred shots.
	Normal
	// Full approaches paper-scale statistics (hours of CPU).
	Full
)

// Config parameterizes an experiment run.
type Config struct {
	Out     io.Writer
	Quality Quality
	Workers int
	Seed    uint64
	// Tracer, when set, samples decodes from every memory experiment into
	// span rings for Chrome trace export (cmd/experiments -trace). It
	// never changes decode results.
	Tracer *obs.Tracer
}

func (c Config) shots(base int) int {
	switch c.Quality {
	case Quick:
		return base / 4
	case Full:
		return base * 25
	default:
		return base
	}
}

// maxN is the largest code size exercised at this quality (keeps Quick
// and Normal runs tractable; Full covers everything).
func (c Config) maxN() int {
	switch c.Quality {
	case Quick:
		return 180
	case Normal:
		return 400
	default:
		return 1 << 30
	}
}

// bpIterCap bounds BP iteration counts (the paper uses n, which is
// prohibitive in software for the largest codes at low quality).
func (c Config) bpIterCap(n int) int {
	switch c.Quality {
	case Quick:
		if n > 150 {
			return 150
		}
	case Normal:
		if n > 400 {
			return 400
		}
	}
	return n
}

// Benchmark describes one evaluated code.
type Benchmark struct {
	// Family is "BB" (circuit-level-lite noise) or "HP"
	// (phenomenological).
	Family string
	Name   string
	Index  int // registry index within the family
	// HintKs carries the paper's structure-derived block counts.
	HintKs []int
	// Rounds is the memory-experiment depth (the code distance).
	Rounds int
}

// Benchmarks lists the twelve Table 2 codes in paper order.
func Benchmarks() []Benchmark {
	var out []Benchmark
	for i, p := range code.BBRegistry {
		hint := p.L
		if p.M < hint {
			hint = p.M
		}
		out = append(out, Benchmark{
			Family: "BB", Name: p.Name, Index: i,
			HintKs: []int{hint * 2, hint},
			Rounds: p.D,
		})
	}
	for i, p := range code.HPRegistry {
		out = append(out, Benchmark{
			Family: "HP", Name: p.Name, Index: i,
			// K = t = m1 is the paper's analytic HP rule (§4.2).
			HintKs: []int{p.L1},
			Rounds: p.D,
		})
	}
	return out
}

// BenchmarkByName looks a Table 2 code up by its name, e.g.
// "BB [[72,12,6]]" (see 'vegapunk codes').
func BenchmarkByName(name string) (Benchmark, bool) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// CheckP rejects a physical error rate outside (0, 1), NaN included:
// the noise model's LLRs log((1−p)/p) would be ±Inf or NaN.
func CheckP(p float64) error {
	if !(p > 0 && p < 1) {
		return fmt.Errorf("-p %g: physical error rate must be in (0, 1)", p)
	}
	return nil
}

// Workspace caches codes, models and decouplings across experiments
// (they are p-independent up to prior scaling).
type Workspace struct {
	mu    sync.Mutex
	codes map[string]*code.CSS
	decs  map[string]*decouple.Decoupling
}

// NewWorkspace returns an empty cache.
func NewWorkspace() *Workspace {
	return &Workspace{
		codes: map[string]*code.CSS{},
		decs:  map[string]*decouple.Decoupling{},
	}
}

// Code builds (or fetches) the benchmark's CSS code.
func (w *Workspace) Code(b Benchmark) (*code.CSS, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if c, ok := w.codes[b.Name]; ok {
		return c, nil
	}
	var c *code.CSS
	var err error
	if b.Family == "BB" {
		c, err = code.NewBBByIndex(b.Index)
	} else {
		c, err = code.NewHPByIndex(b.Index)
	}
	if err != nil {
		return nil, err
	}
	w.codes[b.Name] = c
	return c, nil
}

// Model builds the benchmark's per-round noise model at physical error
// rate p (circuit-level-lite for BB, phenomenological for HP).
func (w *Workspace) Model(b Benchmark, p float64) (*dem.Model, error) {
	c, err := w.Code(b)
	if err != nil {
		return nil, err
	}
	return dem.ForCode(c, b.Family, p), nil
}

// Decoupling runs (or fetches) the offline stage for the benchmark. The
// mechanism structure is p-independent, so one artifact serves every
// sweep point.
func (w *Workspace) Decoupling(b Benchmark) (*decouple.Decoupling, error) {
	w.mu.Lock()
	if d, ok := w.decs[b.Name]; ok {
		w.mu.Unlock()
		return d, nil
	}
	w.mu.Unlock()
	model, err := w.Model(b, 0.001)
	if err != nil {
		return nil, err
	}
	// Decouple validates the artifact it returns.
	d, err := decouple.Decouple(model.CheckMatrix(), decouple.Options{HintKs: b.HintKs, Seed: 1234})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	w.mu.Lock()
	w.decs[b.Name] = d
	w.mu.Unlock()
	return d, nil
}

// PaperPs is the physical-error-rate sweep of Figures 10/14 and the
// threshold fits (5×10⁻⁴ … 5×10⁻³).
var PaperPs = []float64{5e-4, 1e-3, 2e-3, 3e-3, 5e-3}

// Runner executes one experiment.
type Runner struct {
	ID, Title string
	Run       func(cfg Config, ws *Workspace) error
}

// All returns every experiment runner keyed by id.
func All() []Runner {
	return []Runner{
		{"fig2", "LER increase due to quantum degeneracy (BP vs BP+OSD)", Fig2},
		{"fig3a", "Motivation: LER of BP(capped), BP, BP+OSD on BB codes", Fig3a},
		{"fig3b", "Motivation: per-round latency of BP (FPGA) and BP+OSD (CPU)", Fig3b},
		{"table1", "Complexity comparison (analytic + empirical scaling)", Table1},
		{"table2", "Decoupled matrices, thresholds, and latency per round", Table2},
		{"table3", "Visual examples of decoupled check matrices", Table3},
		{"fig10", "LER sweeps: BP vs BP+OSD-CS(7) vs Vegapunk", Fig10},
		{"fig11a", "Scalability: accuracy threshold vs BB code distance", Fig11a},
		{"fig11b", "Scalability: decoding latency vs check matrix size", Fig11b},
		{"table4", "FPGA utilization", Table4},
		{"fig12", "Ablation: offline decoupling strategy", Fig12},
		{"fig13", "Ablation: maximum iteration M", Fig13},
		{"fig14a", "Comparison with BP+LSD and BPGD: latency", Fig14a},
		{"fig14b", "Comparison with BP+LSD and BPGD: threshold", Fig14b},
	}
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
