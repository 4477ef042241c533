package tanner

import (
	"testing"

	"vegapunk/internal/gf2"
)

func TestGraphStructure(t *testing.T) {
	h := gf2.CSCFromDense(gf2.FromRows([][]int{
		{1, 1, 0},
		{0, 1, 1},
	}))
	g := New(h)
	if g.NumChecks != 2 || g.NumVars != 3 {
		t.Fatalf("shape %d/%d", g.NumChecks, g.NumVars)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges %d, want 4", g.NumEdges())
	}
	if len(g.CheckEdges(0)) != 2 || len(g.CheckEdges(1)) != 2 {
		t.Error("check degrees wrong")
	}
	if g.VarDegree(0) != 1 || g.VarDegree(1) != 2 || g.VarDegree(2) != 1 {
		t.Error("var degrees wrong")
	}
	// Edge endpoints consistent both ways.
	for e := 0; e < g.NumEdges(); e++ {
		c, v := g.CheckOf[e], g.VarOf[e]
		foundC := false
		for _, e2 := range g.CheckEdges(int(c)) {
			if int(e2) == e {
				foundC = true
			}
		}
		foundV := int(g.varOff[v]) <= e && e < int(g.varOff[v+1])
		if !foundC || !foundV {
			t.Fatalf("edge %d not indexed from both sides", e)
		}
	}
}

func TestGraphEmptyColumns(t *testing.T) {
	g := New(gf2.CSCFromSupports(3, [][]int{nil, {0, 2}, nil, nil}))
	if g.NumEdges() != 2 {
		t.Errorf("edges %d", g.NumEdges())
	}
	if g.VarDegree(0) != 0 || g.VarDegree(3) != 0 {
		t.Error("empty columns should have degree 0")
	}
}
