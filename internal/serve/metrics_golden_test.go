package serve

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"vegapunk/internal/core"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
	"vegapunk/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestMetricsGolden pins the full zero-traffic /metrics exposition: the
// family set, HELP/TYPE text, bucket layouts and label rendering are
// all part of the scrape contract (dashboards and the CI service smoke
// grep these names). Run with -update after deliberate schema changes.
func TestMetricsGolden(t *testing.T) {
	model, factory := testModel(t)
	srv := NewServer(Config{
		MaxBatch: 8, MaxWait: 50 * time.Microsecond,
		PoolSize: 2,
	})
	if _, err := srv.Register("golden/bp/p0.010", model, "BP(30)", factory); err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, svc := range srv.snapshot() {
			svc.Close()
		}
	}()

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	got := rec.Body.String()

	// The page renders two tables; CheckFamilies sees one at a time,
	// so a name repeated across them is caught here.
	seen := map[string]bool{}
	for _, name := range slices.Concat(familyNames(serviceFamilies), familyNames(wireFamilies)) {
		if seen[name] {
			t.Errorf("family %s is declared by two tables of the page", name)
		}
		seen[name] = true
	}

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("zero-traffic /metrics drifted from testdata/metrics.golden "+
			"(run with -update if the schema change is deliberate):\n%s", diffLines(string(want), got))
	}
}

// familyNames lists the names of a family table.
func familyNames[T any](fams []obs.Family[T]) []string {
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	return names
}

// TestFamilyTablesWellFormed: every family of the replica's exposition
// sets exactly one reader, has HELP text, follows the naming
// conventions and repeats no name within its table (the golden test
// catches a name repeated across tables), and the check does catch a
// duplicated or readerless entry.
func TestFamilyTablesWellFormed(t *testing.T) {
	problems := append(obs.CheckFamilies(serviceFamilies), obs.CheckFamilies(wireFamilies)...)
	if len(problems) > 0 {
		t.Errorf("family tables:\n  %s", strings.Join(problems, "\n  "))
	}
	dup := append(append([]obs.Family[*Service](nil), serviceFamilies...), serviceFamilies[0])
	if len(obs.CheckFamilies(dup)) == 0 {
		t.Error("a duplicated service family passed the check")
	}
	bare := append([]obs.Family[*Server](nil), wireFamilies...)
	bare[0].Counter = nil
	if len(obs.CheckFamilies(bare)) == 0 {
		t.Error("a readerless wire family passed the check")
	}
}

// scriptedStats is a decoder that answers with the zero correction and
// reports the next entry of its script as the decode's stats.
type scriptedStats struct {
	est    gf2.Vec
	script []core.Stats
}

func (d *scriptedStats) Name() string { return "scripted" }

func (d *scriptedStats) Decode(gf2.Vec) (gf2.Vec, core.Stats) {
	st := d.script[0]
	d.script = d.script[1:]
	return d.est, st
}

// TestDecodeTelemetryGating: the decoder telemetry a Service records
// from each answer's stats observes a stage histogram only on decodes
// where that stage ran, and observes every syndrome weight, 0 included.
func TestDecodeTelemetryGating(t *testing.T) {
	model, _ := testModel(t)
	dec := &scriptedStats{est: gf2.NewVec(model.NumMech()), script: []core.Stats{
		{BPIters: 12, BPConverged: true}, // a BP-only decode
		{BPIters: 30, Fallback: true, Hier: hier.Trace{OuterIters: 2}, LSDMaxCluster: 5}, // every stage ran
	}}
	svc := newService("gating", model, "scripted", func() core.Decoder { return dec }, Config{PoolSize: 1})
	defer svc.Close()

	heavy := gf2.NewVec(model.NumDet)
	heavy.Set(0, true)
	heavy.Set(5, true)
	var res Result
	for _, s := range []gf2.Vec{heavy, gf2.NewVec(model.NumDet)} {
		if err := svc.DecodeInto(context.Background(), &res, s); err != nil {
			t.Fatal(err)
		}
	}
	m := svc.met
	if m.bpConverged.Load() != 1 || m.fallback.Load() != 1 {
		t.Errorf("counters: converged=%d fallback=%d, want 1 and 1", m.bpConverged.Load(), m.fallback.Load())
	}
	if m.bpIters.Count() != 2 {
		t.Errorf("bpIters observed %d, want 2", m.bpIters.Count())
	}
	if m.hierLevels.Count() != 1 || m.lsdClusterChecks.Count() != 1 {
		t.Errorf("stage histograms must observe only when the stage ran: hier=%d lsd=%d",
			m.hierLevels.Count(), m.lsdClusterChecks.Count())
	}
	if m.syndromeWeight.Count() != 2 || m.syndromeWeight.Sum() != 2 {
		t.Errorf("syndromeWeight observed %d with sum %g, want 2 with sum 2",
			m.syndromeWeight.Count(), m.syndromeWeight.Sum())
	}
}

// diffLines renders a minimal line diff for golden mismatches.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := len(w)
	if len(g) > n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("- " + wl + "\n+ " + gl + "\n")
		}
	}
	return b.String()
}
