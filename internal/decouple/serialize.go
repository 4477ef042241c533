package decouple

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vegapunk/internal/gf2"
)

// artifactJSON is the stable on-disk form of a Decoupling. Supports are
// stored sparsely, matching the accelerator's compressed format.
type artifactJSON struct {
	Version  int       `json:"version"`
	M        int       `json:"m"`
	N        int       `json:"n"`
	K        int       `json:"k"`
	MD       int       `json:"md"`
	ND       int       `json:"nd"`
	NA       int       `json:"na"`
	TRows    [][]int   `json:"t_rows"`
	ColOrder []int     `json:"col_order"`
	Blocks   [][][]int `json:"blocks"`
	A        [][]int   `json:"a"`
}

// WriteTo serializes the decoupling as JSON.
func (d *Decoupling) WriteTo(w io.Writer) (int64, error) {
	art := artifactJSON{
		Version: 1,
		M:       d.M, N: d.N, K: d.K, MD: d.MD, ND: d.ND, NA: d.NA,
		ColOrder: d.ColOrder,
	}
	for i := 0; i < d.T.Rows(); i++ {
		art.TRows = append(art.TRows, d.T.Row(i).Ones())
	}
	for _, b := range d.Blocks {
		cols := make([][]int, b.Cols())
		for j := 0; j < b.Cols(); j++ {
			cols[j] = b.ColSupport(j)
		}
		art.Blocks = append(art.Blocks, cols)
	}
	for j := 0; j < d.A.Cols(); j++ {
		art.A = append(art.A, d.A.ColSupport(j))
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(art); err != nil {
		return 0, err
	}
	return 1, nil
}

// Read deserializes a decoupling written by WriteTo. The artifact is
// outside input (the "decouple offline, load online" flow), so every
// dimension, length and index the online decoder will rely on is checked
// here and a malformed file is an error, not a later panic.
func Read(r io.Reader) (*Decoupling, error) {
	var art artifactJSON
	if err := json.NewDecoder(r).Decode(&art); err != nil {
		return nil, fmt.Errorf("decouple: reading artifact: %w", err)
	}
	if art.Version != 1 {
		return nil, fmt.Errorf("decouple: unsupported artifact version %d", art.Version)
	}
	if err := art.check(); err != nil {
		return nil, fmt.Errorf("decouple: malformed artifact: %w", err)
	}
	d := &Decoupling{
		M: art.M, N: art.N, K: art.K, MD: art.MD, ND: art.ND, NA: art.NA,
		ColOrder: art.ColOrder,
	}
	d.T = gf2.NewDense(d.M, d.M)
	for i, sup := range art.TRows {
		for _, j := range sup {
			d.T.Set(i, j, true)
		}
	}
	for _, cols := range art.Blocks {
		b := gf2.NewSparseCols(d.MD, len(cols))
		for j, sup := range cols {
			b.SetColSupport(j, sup)
		}
		d.Blocks = append(d.Blocks, b)
	}
	d.A = gf2.NewSparseCols(d.M, len(art.A))
	for j, sup := range art.A {
		d.A.SetColSupport(j, sup)
	}
	return d, nil
}

// check verifies the artifact's shape: the header's dimensions agree
// with each other and with the lengths of the lists, and every stored
// index lies inside the matrix it addresses. The list lengths bound M, N
// and K by the size of the input, and MD ≤ M, ND ≤ N keep the products
// from overflowing.
func (art *artifactJSON) check() error {
	switch {
	case art.M < 0 || art.N < 0 || art.K < 0 || art.MD < 0 || art.ND < 0 || art.NA < 0:
		return errors.New("negative dimension")
	case len(art.TRows) != art.M:
		return fmt.Errorf("%d t_rows, header says m = %d", len(art.TRows), art.M)
	case len(art.ColOrder) != art.N:
		return fmt.Errorf("%d col_order entries, header says n = %d", len(art.ColOrder), art.N)
	case len(art.Blocks) != art.K:
		return fmt.Errorf("%d blocks, header says k = %d", len(art.Blocks), art.K)
	case len(art.A) != art.NA:
		return fmt.Errorf("%d columns of a, header says na = %d", len(art.A), art.NA)
	case art.MD > art.M || art.ND > art.N || art.MD > art.ND:
		return fmt.Errorf("block shape %d×%d does not fit %d×%d", art.MD, art.ND, art.M, art.N)
	case art.K*art.MD != art.M:
		return fmt.Errorf("k·md = %d, header says m = %d", art.K*art.MD, art.M)
	case art.K*art.ND+art.NA != art.N:
		return fmt.Errorf("k·nd+na = %d, header says n = %d", art.K*art.ND+art.NA, art.N)
	}
	if err := gf2.Perm(art.ColOrder).Validate(); err != nil {
		return fmt.Errorf("col_order: %w", err)
	}
	if err := checkSupports("t_rows", art.TRows, art.M); err != nil {
		return err
	}
	for g, cols := range art.Blocks {
		if len(cols) != art.ND-art.MD {
			return fmt.Errorf("block %d has %d columns, header says nd-md = %d", g, len(cols), art.ND-art.MD)
		}
		if err := checkSupports(fmt.Sprintf("blocks[%d]", g), cols, art.MD); err != nil {
			return err
		}
	}
	return checkSupports("a", art.A, art.M)
}

// checkSupports verifies every index of every support lies in [0, limit).
func checkSupports(what string, sups [][]int, limit int) error {
	for i, sup := range sups {
		for _, x := range sup {
			if x < 0 || x >= limit {
				return fmt.Errorf("%s[%d] holds index %d, outside [0, %d)", what, i, x, limit)
			}
		}
	}
	return nil
}
