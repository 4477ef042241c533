package exp

import (
	"bytes"
	"strings"
	"testing"
)

func testCfg(buf *bytes.Buffer) Config {
	return Config{Out: buf, Quality: Quick, Workers: 4, Seed: 11}
}

func TestBenchmarksRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 12 {
		t.Fatalf("expected 12 benchmark codes, got %d", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Family != "BB" && b.Family != "HP" {
			t.Errorf("%s: bad family %q", b.Name, b.Family)
		}
		if b.Rounds < 4 {
			t.Errorf("%s: rounds %d", b.Name, b.Rounds)
		}
	}
}

func TestWorkspaceCaching(t *testing.T) {
	ws := NewWorkspace()
	b := Benchmarks()[6] // HP [[162,2,4]] — small
	c1, err := ws.Code(b)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := ws.Code(b)
	if c1 != c2 {
		t.Error("code not cached")
	}
	d1, err := ws.Decoupling(b)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := ws.Decoupling(b)
	if d1 != d2 {
		t.Error("decoupling not cached")
	}
}

func TestAllRunnersRegistered(t *testing.T) {
	want := []string{"fig2", "fig3a", "fig3b", "table1", "table2", "table3",
		"fig10", "fig11a", "fig11b", "table4", "fig12", "fig13", "fig14a", "fig14b"}
	rs := All()
	if len(rs) != len(want) {
		t.Fatalf("runner count %d, want %d", len(rs), len(want))
	}
	for i, id := range want {
		if rs[i].ID != id {
			t.Errorf("runner %d = %q, want %q", i, rs[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%q) missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestQualityKnobs(t *testing.T) {
	if (Config{Quality: Quick}).shots(400) >= (Config{Quality: Normal}).shots(400) {
		t.Error("quick shots should be fewer than normal")
	}
	if (Config{Quality: Full}).shots(400) <= (Config{Quality: Normal}).shots(400) {
		t.Error("full shots should exceed normal")
	}
	if (Config{Quality: Quick}).maxN() >= (Config{Quality: Full}).maxN() {
		t.Error("maxN ordering broken")
	}
	if (Config{Quality: Quick}).rounds(24) > (Config{Quality: Normal}).rounds(24) {
		t.Error("rounds ordering broken")
	}
	if (Config{Quality: Quick}).bpIterCap(3920) > 200 {
		t.Error("quick BP cap too high")
	}
}

func TestTable4RunsEverywhere(t *testing.T) {
	// Table 4 needs only decouplings — it must cover all 12 codes even
	// at the quick budget.
	if testing.Short() {
		t.Skip("decouples all 12 codes")
	}
	var buf bytes.Buffer
	if err := Table4(testCfg(&buf), NewWorkspace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, b := range Benchmarks() {
		if !strings.Contains(out, b.Name) {
			t.Errorf("table4 output missing %s", b.Name)
		}
	}
	if !strings.Contains(out, "LUT") {
		t.Error("table4 output missing header")
	}
}

func TestFig12RunnerRegistered(t *testing.T) {
	// Fig12 decodes deep space-time batches and is run end to end by
	// CI's "Paper exhibits smoke" step (`experiments -run all -quality
	// quick`) rather than unit tests; here we only check its
	// registration and title.
	r, ok := ByID("fig12")
	if !ok || r.Run == nil {
		t.Fatal("fig12 runner missing")
	}
	if !strings.Contains(r.Title, "decoupling") {
		t.Errorf("fig12 title %q", r.Title)
	}
}

func TestTable3ShowsBlockStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(testCfg(&buf), NewWorkspace()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "diagonal block D_1") || !strings.Contains(out, "off-diagonal matrix A") {
		t.Error("table3 output missing sections")
	}
	// The identity part of D_1 must render as a visible diagonal.
	if !strings.Contains(out, "#") {
		t.Error("density plot contains no filled cells")
	}
}

func TestDumpDecoupling(t *testing.T) {
	var buf bytes.Buffer
	b := Benchmarks()[6]
	if err := DumpDecoupling(testCfg(&buf), NewWorkspace(), b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "K=9") {
		t.Errorf("dump missing expected K: %s", buf.String())
	}
}
