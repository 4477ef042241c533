package hier

import "unsafe"

// Exports for codes_test.go, which is in package hier_test because it
// imports exp and exp imports hier.

var RefHierDecode = refHierDecode

// Shape reports the decoder's word counts, whether GreedyGuess prunes,
// and the bytes its objective table holds.
func (d *Decoder) Shape() (fW, gW int, pruned bool, tableBytes int) {
	return d.fW, d.gW, d.pruned, len(d.table) * int(unsafe.Sizeof(objEntry{}))
}
