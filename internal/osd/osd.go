// Package osd implements Ordered Statistics Decoding post-processing
// (Fossorier & Lin), the accuracy workhorse of the BP+OSD baseline: when
// BP fails to converge, OSD ranks mechanisms by their BP soft output,
// Gauss-eliminates the check matrix in that order, and searches low-order
// bit-flip combinations of the least reliable positions for the
// minimum-weight syndrome-consistent error.
package osd

import (
	"math"
	"sort"

	"vegapunk/internal/gf2"
)

// Method selects the OSD search order.
type Method int

// OSD search strategies (Roffe et al. terminology).
const (
	// OSD0 outputs the hard solution after Gaussian elimination.
	OSD0 Method = iota
	// CombinationSweep additionally tries all 1- and 2-bit flips among
	// the Order least-reliable non-pivot positions (BP+OSD-CS(t)).
	CombinationSweep
	// Exhaustive tries every subset of size ≤ Lambda among the Order
	// least-reliable non-pivot positions (OSD-E(λ)); Lambda = 2
	// coincides with CombinationSweep, Lambda = 3 trades latency for a
	// little more accuracy — the natural extension the paper's accuracy
	// ceiling points at.
	Exhaustive
)

// Config parameterizes OSD.
type Config struct {
	Method Method
	// Order is the t in CS(t); the paper uses t = 7.
	Order int
	// Lambda is the maximum flip-subset size for Exhaustive (default 3).
	Lambda int
}

// Decoder performs OSD against one check matrix. The Gaussian
// elimination is redone per decode (reliability order changes per
// syndrome), which is exactly the sequential cost that makes BP+OSD
// unsuitable for real-time decoding (paper §3 Challenge 2) — but it runs
// in a reusable elimination workspace, so steady-state decodes allocate
// nothing. Not safe for concurrent use; create one per goroutine.
type Decoder struct {
	cfg Config
	h   *gf2.CSC
	// priorLLR is used as the minimum-weight objective.
	priorLLR []float64

	// Reusable elimination workspace, sized once at construction.
	augT    *gf2.Dense // [H | I] template, copied into aug per decode
	aug     *gf2.Dense
	e       *gf2.Dense // extracted row transform
	sorter  argSorter
	pivCols []int
	isPivot []bool
	nonPiv  []int
	flips   []int
	b       gf2.Vec // flipped syndrome
	rb      gf2.Vec // transformed right-hand side
	cand    gf2.Vec // candidate solution
	best    gf2.Vec // running best (returned; owned until next Decode)

	bestW float64
}

// argSorter stably argsorts idx by ascending key, allocation-free.
type argSorter struct {
	idx []int
	key []float64
}

func (s *argSorter) Len() int           { return len(s.idx) }
func (s *argSorter) Less(a, b int) bool { return s.key[s.idx[a]] < s.key[s.idx[b]] }
func (s *argSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// New builds an OSD decoder for a check matrix with the prior LLR
// objective weights.
func New(h *gf2.CSC, priorLLR []float64, cfg Config) *Decoder {
	if cfg.Order <= 0 {
		cfg.Order = 7
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = 3
	}
	n, m := h.Cols(), h.Rows()
	augT := gf2.HStack(h.ToDense(), gf2.Eye(m))
	return &Decoder{
		cfg:      cfg,
		h:        h,
		priorLLR: priorLLR,
		augT:     augT,
		aug:      augT.Clone(),
		e:        gf2.NewDense(m, m),
		sorter:   argSorter{idx: make([]int, n)},
		pivCols:  make([]int, 0, m),
		isPivot:  make([]bool, n),
		nonPiv:   make([]int, 0, n),
		flips:    make([]int, 0, cfg.Lambda),
		b:        gf2.NewVec(m),
		rb:       gf2.NewVec(m),
		cand:     gf2.NewVec(n),
		best:     gf2.NewVec(n),
	}
}

// Decode returns the OSD estimate for the syndrome given per-mechanism
// soft reliabilities (BP posteriors: negative = likely flipped). If
// soft is nil the prior LLRs are used. The result always satisfies
// H·e = s when the syndrome is consistent; otherwise a best-effort
// vector is returned. The returned vector is owned by the decoder and
// valid until the next Decode call.
func (d *Decoder) Decode(syndrome gf2.Vec, soft []float64) gf2.Vec {
	n := d.h.Cols()
	m := d.h.Rows()
	if soft == nil {
		soft = d.priorLLR
	}
	// Rank columns most-likely-error first (ascending soft LLR).
	order := d.sorter.idx
	for i := range order {
		order[i] = i
	}
	d.sorter.key = soft
	sort.Stable(&d.sorter)

	// Eliminate [H | I] with pivot preference following the order. The
	// row transform E lets us solve for arbitrary right-hand sides.
	d.aug.CopyFrom(d.augT)
	d.pivCols = d.pivCols[:0]
	r := 0
	for _, c := range order {
		if r >= m {
			break
		}
		p := -1
		for i := r; i < m; i++ {
			if d.aug.At(i, c) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		d.aug.SwapRows(r, p)
		for i := 0; i < m; i++ {
			if i != r && d.aug.At(i, c) {
				d.aug.RowXor(i, r)
			}
		}
		d.pivCols = append(d.pivCols, c) // into capacity m reserved in New
		r++
	}
	// Row transform: e·H has identity on the pivot columns.
	d.aug.SubmatrixInto(d.e, 0, m, n, n+m)

	for i := range d.isPivot {
		d.isPivot[i] = false
	}
	for _, c := range d.pivCols {
		d.isPivot[c] = true
	}
	// Least-reliable non-pivot columns, most-likely-error first.
	d.nonPiv = d.nonPiv[:0]
	for _, c := range order {
		if !d.isPivot[c] {
			d.nonPiv = append(d.nonPiv, c) // into capacity n reserved in New
		}
	}

	d.bestW = math.Inf(1)
	d.try(syndrome, nil)
	if d.cfg.Method == CombinationSweep || d.cfg.Method == Exhaustive {
		t := d.cfg.Order
		if t > len(d.nonPiv) {
			t = len(d.nonPiv)
		}
		lambda := 2
		if d.cfg.Method == Exhaustive {
			lambda = d.cfg.Lambda
		}
		d.flips = d.flips[:0]
		d.sweep(syndrome, 0, t, lambda)
	}
	if math.IsInf(d.bestW, 1) {
		// Inconsistent system (should not happen for sampled syndromes);
		// return the unconstrained hard decision.
		d.best.Zero()
	}
	return d.best
}

// sweep recursively tries every flip subset of size ≤ lambda among the t
// least-reliable non-pivot positions, reusing d.flips as the subset
// stack.
func (d *Decoder) sweep(syndrome gf2.Vec, start, t, lambda int) {
	if len(d.flips) > 0 {
		d.try(syndrome, d.flips)
	}
	if len(d.flips) == lambda {
		return
	}
	for a := start; a < t; a++ {
		d.flips = append(d.flips, d.nonPiv[a]) // into capacity Lambda reserved in New
		d.sweep(syndrome, a+1, t, lambda)
		d.flips = d.flips[:len(d.flips)-1]
	}
}

// try solves for the candidate with the given non-pivot flips and keeps
// it if it beats the running best.
func (d *Decoder) try(syndrome gf2.Vec, flips []int) {
	m := d.h.Rows()
	d.b.CopyFrom(syndrome)
	for _, c := range flips {
		d.h.XorColInto(d.b, c)
	}
	d.e.MulVecInto(d.rb, d.b)
	// Consistency: rows beyond the rank must be zero.
	for i := len(d.pivCols); i < m; i++ {
		if d.rb.Get(i) {
			return
		}
	}
	d.cand.Zero()
	for i, c := range d.pivCols {
		if d.rb.Get(i) {
			d.cand.Set(c, true)
		}
	}
	for _, c := range flips {
		d.cand.Flip(c)
	}
	if w := d.cand.WeightSum(d.priorLLR); w < d.bestW {
		d.best.CopyFrom(d.cand)
		d.bestW = w
	}
}
