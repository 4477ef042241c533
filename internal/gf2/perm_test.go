package gf2

import "testing"

func TestPermValidateRejectsBad(t *testing.T) {
	if err := Perm([]int{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate entry accepted")
	}
	if err := Perm([]int{0, 3, 1}).Validate(); err == nil {
		t.Error("out-of-range entry accepted")
	}
}

func TestPermuteColsRows(t *testing.T) {
	m := FromRows([][]int{
		{1, 0, 0},
		{0, 1, 0},
	})
	p := Perm([]int{2, 0, 1})
	pc := m.PermuteCols(p)
	// output col 0 = input col 2 (zero), col 1 = input col 0, col 2 = input col 1.
	want := FromRows([][]int{
		{0, 1, 0},
		{0, 0, 1},
	})
	if !pc.Equal(want) {
		t.Errorf("PermuteCols:\n%v\nwant\n%v", pc, want)
	}
}

func TestPermApplyToSlice(t *testing.T) {
	p := Perm([]int{2, 0, 1})
	out := p.ApplyToSlice([]float64{10, 20, 30})
	if out[0] != 30 || out[1] != 10 || out[2] != 20 {
		t.Errorf("ApplyToSlice = %v", out)
	}
}
