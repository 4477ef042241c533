package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0.5, 1, 2, 3, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Errorf("Sum = %g, want 111.5", h.Sum())
	}
	if q := h.Quantile(0.5); q != 2 {
		t.Errorf("p50 = %g, want 2 (bucket upper bound)", q)
	}
	if q := h.Quantile(1.0); q != 8 {
		t.Errorf("p100 = %g, want the largest finite bound 8", q)
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(3) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

func TestDecodeMetricsRecordGating(t *testing.T) {
	m := NewDecodeMetrics()
	// A BP-only decode: no hier/LSD stages ran.
	m.Record(12, true, false, 0, 0, 3)
	// A Vegapunk decode with fallback.
	m.Record(30, false, true, 2, 5, 0)
	if m.Decodes.Load() != 2 || m.BPConverged.Load() != 1 || m.Fallback.Load() != 1 {
		t.Errorf("counters: decodes=%d converged=%d fallback=%d",
			m.Decodes.Load(), m.BPConverged.Load(), m.Fallback.Load())
	}
	if m.BPIters.Count() != 2 {
		t.Errorf("BPIters observed %d, want 2", m.BPIters.Count())
	}
	if m.HierLevels.Count() != 1 || m.LSDClusterChecks.Count() != 1 {
		t.Errorf("stage histograms must observe only when the stage ran: hier=%d lsd=%d",
			m.HierLevels.Count(), m.LSDClusterChecks.Count())
	}
	// Weight-0 syndromes are real decodes and must be observed.
	if m.SyndromeWeight.Count() != 2 {
		t.Errorf("SyndromeWeight observed %d, want 2", m.SyndromeWeight.Count())
	}
}

func TestDecodeMetricsRecordDoesNotAllocate(t *testing.T) {
	m := NewDecodeMetrics()
	allocs := testing.AllocsPerRun(1000, func() {
		m.Record(12, true, false, 2, 5, 3)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestDecodeFamiliesLintClean(t *testing.T) {
	m := NewDecodeMetrics()
	m.Record(12, true, false, 2, 0, 3)
	var buf bytes.Buffer
	WriteFamilies(&buf, DecodeFamilies, []*DecodeMetrics{m}, []string{`model="test"`})
	out := buf.String()
	for _, want := range []string{
		"# HELP vegapunk_decode_total",
		"# TYPE vegapunk_decode_total counter",
		`vegapunk_decode_bp_iterations_bucket{model="test",le="16"} 1`,
		`vegapunk_decode_bp_iterations_count{model="test"} 1`,
		"# TYPE vegapunk_decode_syndrome_weight histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if problems := LintExposition(strings.NewReader(out)); len(problems) > 0 {
		t.Errorf("lint violations: %v", problems)
	}
	if problems := CheckFamilies(DecodeFamilies); len(problems) > 0 {
		t.Errorf("DecodeFamilies: %v", problems)
	}
}

// famInst carries one value per reader kind for the renderer tests.
type famInst struct {
	c uint64
	g int64
	f float64
	h *Histogram
}

var famTable = []Family[*famInst]{
	{Name: "x_total", Help: "A counter.", Counter: func(in *famInst) uint64 { return in.c }},
	{Name: "x_depth", Help: "A gauge.", Gauge: func(in *famInst) int64 { return in.g }},
	{Name: "x_level", Help: "A float gauge.", Float: func(in *famInst) float64 { return in.f }},
	{Name: "x_seconds", Help: "A histogram.", Hist: func(in *famInst) *Histogram { return in.h }},
}

// TestWriteFamilies pins the renderer byte for byte: HELP/TYPE once per
// family with the TYPE fixed by the reader kind, then one sample set
// per instance, unlabelled or labelled; integers in full decimal,
// floats and histogram bounds and sums in %g.
func TestWriteFamilies(t *testing.T) {
	a := &famInst{c: 1<<64 - 1, g: -3, f: 1e-7, h: NewHistogram(0.5, 2)}
	for _, v := range []float64{0.25, 1, 7} {
		a.h.Observe(v)
	}
	b := &famInst{g: 42, f: 100, h: NewHistogram(0.5, 2)}

	var buf bytes.Buffer
	WriteFamilies(&buf, famTable, []*famInst{a}, nil)
	want := `# HELP x_total A counter.
# TYPE x_total counter
x_total 18446744073709551615
# HELP x_depth A gauge.
# TYPE x_depth gauge
x_depth -3
# HELP x_level A float gauge.
# TYPE x_level gauge
x_level 1e-07
# HELP x_seconds A histogram.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.5"} 1
x_seconds_bucket{le="2"} 2
x_seconds_bucket{le="+Inf"} 3
x_seconds_sum 8.25
x_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("unlabelled exposition:\n%s\nwant:\n%s", got, want)
	}

	buf.Reset()
	WriteFamilies(&buf, famTable, []*famInst{a, b}, []string{`k="a"`, `k="b"`})
	want = `# HELP x_total A counter.
# TYPE x_total counter
x_total{k="a"} 18446744073709551615
x_total{k="b"} 0
# HELP x_depth A gauge.
# TYPE x_depth gauge
x_depth{k="a"} -3
x_depth{k="b"} 42
# HELP x_level A float gauge.
# TYPE x_level gauge
x_level{k="a"} 1e-07
x_level{k="b"} 100
# HELP x_seconds A histogram.
# TYPE x_seconds histogram
x_seconds_bucket{k="a",le="0.5"} 1
x_seconds_bucket{k="a",le="2"} 2
x_seconds_bucket{k="a",le="+Inf"} 3
x_seconds_sum{k="a"} 8.25
x_seconds_count{k="a"} 3
x_seconds_bucket{k="b",le="0.5"} 0
x_seconds_bucket{k="b",le="2"} 0
x_seconds_bucket{k="b",le="+Inf"} 0
x_seconds_sum{k="b"} 0
x_seconds_count{k="b"} 0
`
	got := buf.String()
	if got != want {
		t.Errorf("labelled exposition:\n%s\nwant:\n%s", got, want)
	}
	// The histogram samples are exactly the bucket writer's output.
	var hist bytes.Buffer
	a.h.writeProm(&hist, "x_seconds", `k="a"`)
	b.h.writeProm(&hist, "x_seconds", `k="b"`)
	if !strings.HasSuffix(got, hist.String()) {
		t.Errorf("histogram samples differ from writeProm:\n%s", hist.String())
	}
	if problems := LintExposition(strings.NewReader(got)); len(problems) > 0 {
		t.Errorf("lint violations: %v", problems)
	}
}

// TestCheckFamilies: a well-formed table passes; a readerless entry, an
// entry with two readers and a repeated name are each reported.
func TestCheckFamilies(t *testing.T) {
	if problems := CheckFamilies(famTable); len(problems) > 0 {
		t.Fatalf("well-formed table flagged: %v", problems)
	}
	bare := append([]Family[*famInst](nil), famTable...)
	bare[1].Gauge = nil
	two := append([]Family[*famInst](nil), famTable...)
	two[0].Gauge = famTable[1].Gauge
	dup := append(append([]Family[*famInst](nil), famTable...), famTable[2])
	for _, tc := range []struct {
		name string
		fams []Family[*famInst]
		want string
	}{
		{"readerless", bare, "x_depth: 0 readers"},
		{"two readers", two, "x_total: 2 readers"},
		{"duplicate", dup, "x_level: family declared twice"},
	} {
		problems := CheckFamilies(tc.fams)
		if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
			t.Errorf("%s: got %v, want one problem containing %q", tc.name, problems, tc.want)
		}
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"missing help",
			"# TYPE x_total counter\nx_total 1\n",
			"without # HELP"},
		{"missing type",
			"# HELP x_total help text\nx_total 1\n",
			"without # TYPE"},
		{"counter without _total",
			"# HELP x help\n# TYPE x counter\nx 1\n",
			"counter must end in _total"},
		{"gauge with _total",
			"# HELP x_total help\n# TYPE x_total gauge\nx_total 1\n",
			"must not end in _total"},
		{"reserved suffix",
			"# HELP x_sum help\n# TYPE x_sum gauge\nx_sum 1\n",
			"reserved suffix"},
		{"duration without seconds",
			"# HELP x_latency help\n# TYPE x_latency gauge\nx_latency 1\n",
			"must end in _seconds"},
		{"bad character",
			"# HELP x-y help\n# TYPE x-y gauge\nx-y 1\n",
			"invalid metric name character"},
		{"declared twice",
			"# HELP x help\n# TYPE x gauge\nx 1\n# HELP x help\n# TYPE x gauge\nx 2\n",
			"declared twice"},
	}
	for _, tc := range cases {
		problems := LintExposition(strings.NewReader(tc.in))
		found := false
		for _, p := range problems {
			if strings.Contains(p, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: lint missed the violation (got %v)", tc.name, problems)
		}
	}
	clean := "# HELP ok_wait_seconds help\n# TYPE ok_wait_seconds histogram\n" +
		"ok_wait_seconds_bucket{le=\"+Inf\"} 1\nok_wait_seconds_sum 0.5\nok_wait_seconds_count 1\n"
	if problems := LintExposition(strings.NewReader(clean)); len(problems) > 0 {
		t.Errorf("false positives on clean exposition: %v", problems)
	}
}
