// Package tanner represents the Tanner graph of a check matrix in the
// flat edge-array layout used by the message-passing decoders.
package tanner

import "vegapunk/internal/gf2"

// Graph is the bipartite check/variable adjacency of a check matrix,
// with a flat edge numbering: edge e connects CheckOf[e] and VarOf[e].
// The per-node incidence lists are stored CSR-style — one shared edge-id
// array per side plus an offsets array — so iterating a node's edges
// walks a contiguous int32 span with no pointer chasing.
type Graph struct {
	NumChecks, NumVars int
	// CheckOf[e] and VarOf[e] are the endpoints of edge e.
	CheckOf, VarOf []int32
	// checkEdges[checkOff[c]:checkOff[c+1]] lists the edge ids incident
	// to check c; variable v's are the consecutive ids varOff[v] up to
	// varOff[v+1].
	checkOff, varOff []int32
	checkEdges       []int32
}

// New builds the graph of a sparse check matrix. Edges are numbered
// column-major (variable by variable, each in column-support order), so
// a variable's edges are consecutive and a check's edges are sorted by
// variable.
func New(h *gf2.CSC) *Graph {
	g := &Graph{
		NumChecks: h.Rows(),
		NumVars:   h.Cols(),
	}
	ne := h.NNZ()
	g.CheckOf = make([]int32, 0, ne)
	g.VarOf = make([]int32, 0, ne)
	g.checkOff = make([]int32, g.NumChecks+1)
	g.varOff = make([]int32, g.NumVars+1)
	for v := 0; v < g.NumVars; v++ {
		for _, c := range h.ColSpan(v) {
			g.CheckOf = append(g.CheckOf, c)
			g.VarOf = append(g.VarOf, int32(v))
			g.checkOff[c+1]++
		}
		g.varOff[v+1] = int32(len(g.VarOf))
	}
	for c := 0; c < g.NumChecks; c++ {
		g.checkOff[c+1] += g.checkOff[c]
	}
	// A check's edges are placed by a counting pass over ascending edge
	// id.
	g.checkEdges = make([]int32, ne)
	next := make([]int32, g.NumChecks)
	copy(next, g.checkOff[:g.NumChecks])
	for e := 0; e < ne; e++ {
		c := g.CheckOf[e]
		g.checkEdges[next[c]] = int32(e)
		next[c]++
	}
	return g
}

// NumEdges returns the number of Tanner graph edges (matrix nonzeros).
func (g *Graph) NumEdges() int { return len(g.CheckOf) }

// CheckEdges returns the edge ids incident to check c (ascending, i.e.
// sorted by variable). The span aliases the graph's storage: no
// allocation, must not be modified.
func (g *Graph) CheckEdges(c int) []int32 {
	return g.checkEdges[g.checkOff[c]:g.checkOff[c+1]]
}

// VarDegree returns the degree of variable v.
func (g *Graph) VarDegree(v int) int { return int(g.varOff[v+1] - g.varOff[v]) }
