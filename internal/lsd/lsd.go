// Package lsd implements BP+LSD (localized statistics decoding, order 0;
// Hillmann et al. 2024): a parallel post-processor that, when BP fails,
// grows clusters around flipped detectors until each cluster's local
// linear system becomes solvable, then solves the clusters independently
// with reliability-guided pivoting.
package lsd

import (
	"sort"

	"vegapunk/internal/bp"
	"vegapunk/internal/gf2"
	"vegapunk/internal/obs"
)

// Decoder is a BP+LSD decoder bound to one check matrix. The union-find
// arrays, cluster lists, and membership marks are decoder-owned and
// reused across decodes; only the per-cluster local systems (whose shape
// depends on how far clusters grow) are allocated on the post-processing
// path. Not safe for concurrent use.
type Decoder struct {
	bp       *bp.Decoder
	h        *gf2.CSC
	rows     *gf2.CSR
	priorLLR []float64
	// skipFallback returns the BP hard decision even on
	// non-convergence (degraded serving tiers drop cluster solving to
	// stay inside the deadline budget).
	skipFallback bool

	// Cluster scratch, reused across decodes.
	parent    []int   // union-find over checks
	inCluster []bool  // check absorbed into some cluster
	colIn     []bool  // column absorbed into some cluster
	slot      []int   // root check -> group slot (reset to -1 after use)
	roots     []int   // roots touched by the last collectGroups
	groups    [][]int // per-group check lists (backing arrays reused)
	inSet     []bool  // scratch: membership of one cluster's checks
	seen      []bool  // scratch: columns visited for one cluster
	visited   []int   // columns to un-mark in seen
	colsBuf   []int   // interior columns of one cluster
	rowOf     []int   // check -> local row index (reset to -1 after use)
	out       gf2.Vec // result (owned until next Decode)
}

// New builds a BP+LSD decoder. The paper's configuration runs BP for 30
// iterations with order-0 cluster solving.
func New(h *gf2.CSC, priorLLR []float64, bpCfg bp.Config) *Decoder {
	if bpCfg.MaxIters == 0 {
		bpCfg.MaxIters = 30
	}
	m, n := h.Rows(), h.Cols()
	d := &Decoder{
		bp:        bp.New(h, priorLLR, bpCfg),
		h:         h,
		rows:      gf2.CSRFromCSC(h),
		priorLLR:  priorLLR,
		parent:    make([]int, m),
		inCluster: make([]bool, m),
		colIn:     make([]bool, n),
		slot:      make([]int, m),
		inSet:     make([]bool, m),
		seen:      make([]bool, n),
		rowOf:     make([]int, m),
		out:       gf2.NewVec(n),
	}
	for i := range d.slot {
		d.slot[i] = -1
	}
	for i := range d.rowOf {
		d.rowOf[i] = -1
	}
	return d
}

// Result reports a BP+LSD decode.
type Result struct {
	// Error is owned by the decoder and valid until the next Decode call.
	Error       gf2.Vec
	BPConverged bool
	BPIters     int
	// Clusters is the number of clusters solved and MaxClusterChecks the
	// largest cluster's check count (κ in the paper's complexity table).
	Clusters, MaxClusterChecks int
}

// Probe exposes the BP stage's recording handle (obs.Probed); fallback
// spans share it, so one activation traces the whole chain.
func (d *Decoder) Probe() *obs.Probe { return d.bp.Probe() }

// SetBPMaxIters retunes the BP stage's iteration cap at runtime.
//
//vegapunk:hotpath
func (d *Decoder) SetBPMaxIters(n int) { d.bp.SetMaxIters(n) }

// BPMaxIters reports the BP stage's current iteration cap.
func (d *Decoder) BPMaxIters() int { return d.bp.MaxIters() }

// SetFallback toggles the cluster-solving stage. With fallback off a
// non-converged BP decode returns the BP hard decision as-is (the
// degraded-tier trade: bounded latency over accuracy).
//
//vegapunk:hotpath
func (d *Decoder) SetFallback(on bool) { d.skipFallback = !on }

// Decode runs BP and, on failure, localized cluster solving.
func (d *Decoder) Decode(syndrome gf2.Vec) Result {
	r := d.bp.Decode(syndrome)
	if r.Converged {
		return Result{Error: r.Error, BPConverged: true, BPIters: r.Iters}
	}
	if d.skipFallback {
		return Result{Error: r.Error, BPIters: r.Iters}
	}
	p := d.bp.Probe()
	t := p.Tick()
	e, nc, maxc := d.clusterSolve(syndrome, r.Posterior)
	p.SpanSince(obs.StageFallback, maxc, t)
	return Result{Error: e, BPIters: r.Iters, Clusters: nc, MaxClusterChecks: maxc}
}

// find is union-find root lookup with path halving.
func (d *Decoder) find(x int) int {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

func (d *Decoder) union(a, b int) { d.parent[d.find(a)] = d.find(b) }

// collectGroups gathers the current clusters as lists of member checks.
// The returned slices (outer and inner) alias decoder-owned storage and
// are valid until the next collectGroups call.
func (d *Decoder) collectGroups() [][]int {
	m := len(d.parent)
	d.roots = d.roots[:0]
	ngroups := 0
	for c := 0; c < m; c++ {
		if !d.inCluster[c] {
			continue
		}
		r := d.find(c)
		s := d.slot[r]
		if s < 0 {
			s = ngroups
			d.slot[r] = s
			d.roots = append(d.roots, r)
			if ngroups < len(d.groups) {
				d.groups[s] = d.groups[s][:0]
			} else {
				d.groups = append(d.groups, nil)
			}
			ngroups++
		}
		d.groups[s] = append(d.groups[s], c)
	}
	for _, r := range d.roots {
		d.slot[r] = -1
	}
	return d.groups[:ngroups]
}

// clusterSolve grows and solves clusters around flipped detectors.
func (d *Decoder) clusterSolve(syndrome gf2.Vec, soft []float64) (gf2.Vec, int, int) {
	m := d.h.Rows()
	for i := range d.parent {
		d.parent[i] = i
	}
	for i := range d.inCluster {
		d.inCluster[i] = false
	}
	for i := range d.colIn {
		d.colIn[i] = false
	}
	for c := 0; c < m; c++ {
		if syndrome.Get(c) {
			d.inCluster[c] = true
		}
	}

	// Iteratively grow all clusters simultaneously until every cluster's
	// local system is solvable (or the whole matrix has been absorbed).
	for iter := 0; ; iter++ {
		allValid := true
		for _, checks := range d.collectGroups() {
			if !d.clusterValid(checks, syndrome) {
				allValid = false
				// Grow: absorb every column adjacent to the cluster's
				// checks, then every check adjacent to those columns.
				for _, c := range checks {
					for _, v := range d.rows.RowSpan(c) {
						d.colIn[v] = true
						for _, c2 := range d.h.ColSpan(int(v)) {
							if !d.inCluster[c2] {
								d.inCluster[c2] = true
								d.parent[c2] = d.find(c)
							} else {
								d.union(int(c2), c)
							}
						}
					}
				}
			}
		}
		if allValid || iter > m {
			break
		}
	}

	// Solve each cluster independently with reliability-guided pivoting.
	d.out.Zero()
	groups := d.collectGroups()
	maxChecks := 0
	for _, checks := range groups {
		if len(checks) > maxChecks {
			maxChecks = len(checks)
		}
		d.solveCluster(checks, syndrome, soft, d.out)
	}
	return d.out, len(groups), maxChecks
}

// clusterValid reports whether the local system restricted to the
// cluster's checks and its interior columns is solvable.
func (d *Decoder) clusterValid(checks []int, syndrome gf2.Vec) bool {
	cols := d.interiorColumns(checks)
	if len(cols) == 0 {
		return false
	}
	sub, rhs := d.localSystem(checks, cols, syndrome)
	_, err := sub.Solve(rhs)
	return err == nil
}

// interiorColumns returns absorbed columns whose support lies entirely
// within the cluster's checks (so solving them cannot disturb other
// clusters). The result aliases decoder-owned scratch, valid until the
// next call.
func (d *Decoder) interiorColumns(checks []int) []int {
	for _, c := range checks {
		d.inSet[c] = true
	}
	d.visited = d.visited[:0]
	d.colsBuf = d.colsBuf[:0]
	for _, c := range checks {
		for _, v32 := range d.rows.RowSpan(c) {
			v := int(v32)
			if !d.colIn[v] || d.seen[v] {
				continue
			}
			d.seen[v] = true
			d.visited = append(d.visited, v)
			ok := true
			for _, c2 := range d.h.ColSpan(v) {
				if !d.inSet[c2] {
					ok = false
					break
				}
			}
			if ok {
				d.colsBuf = append(d.colsBuf, v)
			}
		}
	}
	for _, c := range checks {
		d.inSet[c] = false
	}
	for _, v := range d.visited {
		d.seen[v] = false
	}
	sort.Ints(d.colsBuf)
	return d.colsBuf
}

// localSystem extracts the cluster submatrix and sub-syndrome. The
// returned matrix and vector are freshly allocated: their shape depends
// on how far the cluster grew, and they are consumed immediately by
// Dense.Solve (which mutates its receiver).
func (d *Decoder) localSystem(checks, cols []int, syndrome gf2.Vec) (*gf2.Dense, gf2.Vec) {
	sub := gf2.NewDense(len(checks), len(cols))
	for i, c := range checks {
		d.rowOf[c] = i
	}
	for j, v := range cols {
		for _, c := range d.h.ColSpan(v) {
			if i := d.rowOf[c]; i >= 0 {
				sub.Set(i, j, true)
			}
		}
	}
	for _, c := range checks {
		d.rowOf[c] = -1
	}
	rhs := gf2.NewVec(len(checks))
	for i, c := range checks {
		if syndrome.Get(c) {
			rhs.Set(i, true)
		}
	}
	return sub, rhs
}

// solveCluster writes a reliability-guided particular solution of the
// cluster system into out.
func (d *Decoder) solveCluster(checks []int, syndrome gf2.Vec, soft []float64, out gf2.Vec) {
	cols := d.interiorColumns(checks)
	if len(cols) == 0 {
		return
	}
	// Order columns most-likely-error first so the Gaussian solution
	// places support there (order-0 statistics).
	sort.SliceStable(cols, func(a, b int) bool { return soft[cols[a]] < soft[cols[b]] })
	sub, rhs := d.localSystem(checks, cols, syndrome)
	x, err := sub.Solve(rhs)
	if err != nil {
		return // cluster still unsolvable; leave zero (best effort)
	}
	for j := 0; j < x.Len(); j++ {
		if x.Get(j) {
			out.Set(cols[j], true)
		}
	}
}
