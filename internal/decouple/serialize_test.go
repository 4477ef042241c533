package decouple

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
)

func TestSerializeRoundTrip(t *testing.T) {
	c, err := code.NewHPByIndex(0)
	if err != nil {
		t.Fatal(err)
	}
	model := dem.Phenomenological(c, 0.001, 0.001)
	D := model.CheckMatrix()
	dec, err := Decouple(D, Options{HintKs: []int{9}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The restored artifact must validate against the original matrix
	// bit for bit — the deployment flow (offline store, online load).
	if err := back.Validate(D); err != nil {
		t.Fatal(err)
	}
	if back.K != dec.K || back.MD != dec.MD || back.ND != dec.ND || back.NA != dec.NA {
		t.Error("shape metadata changed through serialization")
	}
	if !back.Assemble().Equal(dec.Assemble()) {
		t.Error("assembled matrices differ after round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("unknown version accepted")
	}
	if _, err := Read(strings.NewReader(`{"version":1,"m":2,"n":2,"k":3,"md":1,"nd":1,"na":0,"blocks":[]}`)); err == nil {
		t.Error("inconsistent block count accepted")
	}
}

// TestReadRejectsMalformedArtifacts feeds Read artifacts that are valid
// JSON of the right version but describe no decoupling. Before Read
// checked its input the first three panicked inside Read and the rest
// were returned with a nil error, to panic in hier.New or Decode.
func TestReadRejectsMalformedArtifacts(t *testing.T) {
	D := gf2.FromRows([][]int{
		{1, 1, 0, 0, 1},
		{0, 0, 1, 1, 1},
	})
	dec := decoupleK(D, 2, 0)
	if dec == nil {
		t.Fatal("fixture has no K = 2 decoupling")
	}
	if dec.NA == 0 {
		t.Fatal("fixture has no A column to corrupt")
	}
	valid := serialized(t, dec)
	if _, err := Read(bytes.NewReader(valid)); err != nil {
		t.Fatalf("unmodified artifact rejected: %v", err)
	}

	cases := []struct {
		name    string
		corrupt func(*artifactJSON)
	}{
		{"t_rows longer than m", func(a *artifactJSON) { a.TRows = append(a.TRows, []int{0}) }},
		{"t_rows entry >= m", func(a *artifactJSON) { a.TRows[0] = []int{a.M} }},
		{"negative m", func(a *artifactJSON) { a.M = -1 }},
		{"col_order entry out of range", func(a *artifactJSON) { a.ColOrder[0] = a.N }},
		{"col_order entry repeated", func(a *artifactJSON) { a.ColOrder[0] = a.ColOrder[1] }},
		{"a entry out of range", func(a *artifactJSON) { a.A[0] = []int{a.M} }},
		{"a entry negative", func(a *artifactJSON) { a.A[0] = []int{-1} }},
		{"a entry repeated", func(a *artifactJSON) { a.A[0] = []int{0, 1, 0} }},
		{"a shorter than na", func(a *artifactJSON) { a.A = a.A[:len(a.A)-1] }},
		{"block row >= md", func(a *artifactJSON) { a.Blocks[0][0] = []int{a.MD} }},
		{"block with an extra column", func(a *artifactJSON) { a.Blocks[1] = append(a.Blocks[1], []int{0}) }},
		{"k·md != m", func(a *artifactJSON) { a.MD++ }},
		{"k·nd+na != n", func(a *artifactJSON) { a.NA++; a.A = append(a.A, []int{0}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var art artifactJSON
			if err := json.Unmarshal(valid, &art); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(&art)
			raw, err := json.Marshal(art)
			if err != nil {
				t.Fatal(err)
			}
			if dec, err := Read(bytes.NewReader(raw)); err == nil {
				t.Errorf("accepted, as a %d×%d artifact", dec.M, dec.N)
			}
		})
	}
}
