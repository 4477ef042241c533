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
	// Buckets are upper-inclusive; 100 lands in the +Inf bucket.
	for i, want := range []uint64{2, 1, 1, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(3) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f times per call, want 0", allocs)
	}
}

// famInst carries one value per reader kind for the renderer tests.
type famInst struct {
	c uint64
	g int64
	h *Histogram
}

var famTable = []Family[*famInst]{
	{Name: "x_total", Help: "A counter.", Counter: func(in *famInst) uint64 { return in.c }},
	{Name: "x_depth", Help: "A gauge.", Gauge: func(in *famInst) int64 { return in.g }},
	{Name: "x_seconds", Help: "A histogram.", Hist: func(in *famInst) *Histogram { return in.h }},
}

// TestWriteFamilies pins the renderer byte for byte: HELP/TYPE once per
// family with the TYPE fixed by the reader kind, then one sample set
// per instance, unlabelled or labelled; integers in full decimal,
// histogram bounds and sums in %g.
func TestWriteFamilies(t *testing.T) {
	a := &famInst{c: 1<<64 - 1, g: -3, h: NewHistogram(0.5, 2)}
	for _, v := range []float64{0.25, 1, 7} {
		a.h.Observe(v)
	}
	b := &famInst{g: 42, h: NewHistogram(0.5, 2)}

	var buf bytes.Buffer
	WriteFamilies(&buf, famTable, []*famInst{a}, nil)
	want := `# HELP x_total A counter.
# TYPE x_total counter
x_total 18446744073709551615
# HELP x_depth A gauge.
# TYPE x_depth gauge
x_depth -3
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
}

// editedFams returns famTable with entry i changed by edit.
func editedFams(i int, edit func(*Family[*famInst])) []Family[*famInst] {
	fams := append([]Family[*famInst](nil), famTable...)
	edit(&fams[i])
	return fams
}

// checkOne fails t unless CheckFamilies reports exactly one problem for
// fams and it contains want.
func checkOne(t *testing.T, name string, fams []Family[*famInst], want string) {
	t.Helper()
	problems := CheckFamilies(fams)
	if len(problems) != 1 || !strings.Contains(problems[0], want) {
		t.Errorf("%s: got %v, want one problem containing %q", name, problems, want)
	}
}

// TestCheckFamilies: a well-formed table passes; a readerless entry, an
// entry with two readers and a repeated name are each reported.
func TestCheckFamilies(t *testing.T) {
	if problems := CheckFamilies(famTable); len(problems) > 0 {
		t.Fatalf("well-formed table flagged: %v", problems)
	}
	checkOne(t, "readerless", editedFams(1, func(f *Family[*famInst]) { f.Gauge = nil }), "x_depth: 0 readers")
	checkOne(t, "two readers", editedFams(0, func(f *Family[*famInst]) { f.Gauge = famTable[1].Gauge }), "x_total: 2 readers")
	checkOne(t, "duplicate", append(append([]Family[*famInst](nil), famTable...), famTable[2]), "x_seconds: family declared twice")
}

// TestCheckFamiliesNaming: an empty HELP and each naming-convention
// violation are reported by CheckFamilies before anything is rendered.
func TestCheckFamiliesNaming(t *testing.T) {
	rename := func(name string) func(*Family[*famInst]) {
		return func(f *Family[*famInst]) { f.Name = name }
	}
	for _, tc := range []struct {
		name string
		fams []Family[*famInst]
		want string
	}{
		{"empty help", editedFams(1, func(f *Family[*famInst]) { f.Help = "" }), "x_depth: no HELP text"},
		{"counter without _total", editedFams(0, rename("x")), "x: counter must end in _total"},
		{"gauge with _total", editedFams(1, rename("x_depth_total")), "x_depth_total: gauge must not end in _total"},
		{"reserved suffix", editedFams(1, rename("x_sum")), "x_sum: family name ends in reserved suffix _sum"},
		{"bad character", editedFams(1, rename("x-y")), "x-y: invalid metric name character"},
		{"duration without _seconds", editedFams(1, rename("x_latency")), "x_latency: duration-like metric must end in _seconds"},
	} {
		checkOne(t, tc.name, tc.fams, tc.want)
	}
}
