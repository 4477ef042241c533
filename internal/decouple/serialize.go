package decouple

import (
	"encoding/json"
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

// WriteTo serializes the decoupling as JSON: the export of `vegapunk
// decouple -out`, and the byte form the golden digests pin. Nothing in
// the module reads the file back; every decoding process runs Decouple
// at start and gets the same validated artifact in memory.
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
