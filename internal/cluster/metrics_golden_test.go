package cluster

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vegapunk/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRouterMetricsGolden pins the router's zero-traffic /metrics
// exposition: family set, HELP/TYPE text and label rendering are part
// of the scrape contract. Run with -update after deliberate schema
// changes.
func TestRouterMetricsGolden(t *testing.T) {
	rt, err := New(Config{
		Replicas:      []string{"10.0.0.1:9000", "10.0.0.2:9000"},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	got := rec.Body.String()

	// The page renders two tables; CheckFamilies sees one at a time, so
	// a name repeated across them is caught here.
	seen := map[string]bool{}
	for _, name := range append(familyNames(routerFamilies), familyNames(replicaFamilies)...) {
		if seen[name] {
			t.Errorf("family %s is declared by both tables of the page", name)
		}
		seen[name] = true
	}

	// The telemetry families are load-bearing for dashboards; a golden
	// regeneration must not silently drop them.
	for _, fam := range []string{
		"vegapunk_router_replica_network_seconds",
		"vegapunk_router_replica_server_seconds",
		"vegapunk_router_hedges_total",
		"vegapunk_router_hedge_wins_total",
		"vegapunk_router_reconnects_total",
		"vegapunk_router_admission_rejected_total",
	} {
		if !strings.Contains(got, "# TYPE "+fam+" ") {
			t.Errorf("exposition missing family %s", fam)
		}
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
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("metrics exposition drifted from testdata/metrics.golden; run with -update if deliberate.\ngot:\n%s", got)
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

// TestFamilyTablesWellFormed: every family of the router's exposition
// sets exactly one reader, has HELP text, follows the naming
// conventions and repeats no name within its table (the golden test
// catches a name repeated across tables), and the check does catch a
// duplicated or readerless entry.
func TestFamilyTablesWellFormed(t *testing.T) {
	problems := append(obs.CheckFamilies(routerFamilies), obs.CheckFamilies(replicaFamilies)...)
	if len(problems) > 0 {
		t.Errorf("family tables:\n  %s", strings.Join(problems, "\n  "))
	}
	dup := append(append([]obs.Family[*replica](nil), replicaFamilies...), replicaFamilies[0])
	if len(obs.CheckFamilies(dup)) == 0 {
		t.Error("a duplicated replica family passed the check")
	}
	bare := append([]obs.Family[*Router](nil), routerFamilies...)
	bare[0].Counter = nil
	if len(obs.CheckFamilies(bare)) == 0 {
		t.Error("a readerless router family passed the check")
	}
}
