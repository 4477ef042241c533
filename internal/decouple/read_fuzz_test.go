package decouple_test

import (
	"bytes"
	"testing"

	"vegapunk/internal/code"
	"vegapunk/internal/decouple"
	"vegapunk/internal/dem"
	"vegapunk/internal/gf2"
	"vegapunk/internal/hier"
)

// FuzzReadArtifact holds Read to its contract on outside input: it never
// panics, and an artifact it accepts is one Validate can check without
// panicking (against the zero matrix of its shape) and the online decoder
// can be built from and run on (hier.New plus a decode of the zero
// syndrome).
// It lives in the external test package because hier imports decouple.
func FuzzReadArtifact(f *testing.F) {
	c, err := code.NewBBByIndex(0)
	if err != nil {
		f.Fatal(err)
	}
	dec, err := decouple.Decouple(dem.CircuitLevel(c, 0.003).CheckMatrix(), decouple.Options{Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := dec.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	art := buf.Bytes()
	f.Add(art)
	for _, cut := range []int{1, 2, 3, 4, 8} {
		f.Add(art[:len(art)/cut])
	}
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"m":1,"n":2,"k":1,"md":1,"nd":1,"na":1,"t_rows":[[0]],"col_order":[1,0],"blocks":[[]],"a":[[0]]}`))
	f.Add([]byte(`{"version":1,"m":1,"n":2,"k":1,"md":1,"nd":1,"na":1,"t_rows":[[0]],"col_order":[1,0],"blocks":[[]],"a":[[0,0]]}`))
	f.Add([]byte(`{"version":1,"m":0,"n":0,"k":0,"md":0,"nd":0,"na":0,"t_rows":[],"col_order":[],"blocks":[],"a":[]}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dec, err := decouple.Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		_ = dec.Validate(gf2.NewDense(dec.M, dec.N)) // any error is fine; a panic is not
		weights := make([]float64, dec.N)
		for i := range weights {
			weights[i] = 1
		}
		e, _ := hier.New(dec, weights, hier.Config{}).Decode(gf2.NewVec(dec.M))
		if !e.IsZero() {
			t.Fatalf("zero syndrome decoded to a weight-%d correction under unit weights", e.Weight())
		}
	})
}
