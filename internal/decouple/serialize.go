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
		art.Blocks = append(art.Blocks, supports(b))
	}
	if d.NA > 0 { // an A without columns is written null, not []
		art.A = supports(d.A)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(art); err != nil {
		return 0, err
	}
	return 1, nil
}

// supports lists the columns of c as the artifact stores them; an empty
// column is written [], not null.
func supports(c *gf2.CSC) [][]int {
	cols := make([][]int, c.Cols())
	for j := range cols {
		cols[j] = make([]int, c.ColWeight(j))
		for k, i := range c.ColSpan(j) {
			cols[j][k] = int(i)
		}
	}
	return cols
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
	d.TRows = gf2.CSRFromDense(d.T)
	for _, cols := range art.Blocks {
		d.Blocks = append(d.Blocks, gf2.CSCFromSupports(d.MD, cols))
	}
	d.A = gf2.CSCFromSupports(d.M, art.A)
	return d, nil
}

// check verifies the artifact's shape: the header's dimensions agree
// with each other and with the lengths of the lists, and every stored
// index lies inside the matrix it addresses, once per support. The list
// lengths bound M, N and K by the size of the input, and MD ≤ M, ND ≤ N
// keep the products from overflowing.
func (art *artifactJSON) check() error {
	switch {
	case art.M <= 0 || art.N < 0 || art.K < 0 || art.MD < 0 || art.ND < 0 || art.NA < 0:
		return errors.New("empty matrix or negative dimension")
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

// checkSupports verifies every index of every support lies in [0, limit)
// and occurs once in it: a repeated index would be one entry to Assemble
// and none to the XOR kernels.
func checkSupports(what string, sups [][]int, limit int) error {
	heldBy := make([]int, limit) // 1 + the last support that held the index
	for i, sup := range sups {
		for _, x := range sup {
			if x < 0 || x >= limit {
				return fmt.Errorf("%s[%d] holds index %d, outside [0, %d)", what, i, x, limit)
			}
			if heldBy[x] == i+1 {
				return fmt.Errorf("%s[%d] repeats index %d", what, i, x)
			}
			heldBy[x] = i + 1
		}
	}
	return nil
}
