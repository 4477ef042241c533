// Package smt provides a from-scratch boolean constraint solver used by
// the offline decoupler: a CDCL SAT core (two-watched-literal
// propagation, 1UIP clause learning, VSIDS branching, Luby restarts),
// cardinality-constraint encodings, and a linear-objective optimizer via
// iterative strengthening.
//
// It stands in for the Z3 SMT solver the paper uses offline (DESIGN.md
// §1): the decoupling constraints of §4.2 are pure boolean/cardinality
// constraints once the transformation search is staged, so a SAT core
// with cardinality support covers the same formulation.
package smt

import "sort"

// Var is a 0-based boolean variable index.
type Var int

// Lit is a literal: variable with sign, encoded as 2*v (positive) or
// 2*v+1 (negated).
type Lit int

// Pos returns the positive literal of v.
func Pos(v Var) Lit { return Lit(2 * v) }

// Neg returns the negated literal of v.
func Neg(v Var) Lit { return Lit(2*v + 1) }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether the literal is negated.
func (l Lit) Sign() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// Solver is a CDCL SAT solver. The zero value is not usable; call
// NewSolver.
type Solver struct {
	clauses  []*clause
	watches  [][]*clause // per literal
	assign   []lbool     // per var
	level    []int       // per var
	reason   []*clause   // per var
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    []Var // lazily sorted decision candidates
	polarity []bool

	unsat    bool
	conflict *clause

	nConflicts int
	// MaxConflicts optionally bounds the search; 0 = unbounded.
	// Solve returns false with Exhausted=true when the bound is hit.
	MaxConflicts int
	// Exhausted reports that the last Solve hit MaxConflicts.
	Exhausted bool
}

// NewSolver returns an empty solver.
func NewSolver() *Solver {
	return &Solver{varInc: 1}
}

// NewVar introduces a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.watches = append(s.watches, nil, nil)
	s.order = append(s.order, v)
	return v
}

// NumVars returns the number of variables.
func (s *Solver) NumVars() int { return len(s.assign) }

func (s *Solver) litValue(l Lit) lbool {
	v := s.assign[l.Var()]
	if l.Sign() {
		return v.neg()
	}
	return v
}

// AddClause adds a disjunction of literals. Returns false if the formula
// became trivially unsatisfiable.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Adding a clause after a Solve invalidates the model: return to the
	// root level first.
	s.cancelUntil(0)
	// Normalize: sort, dedupe, drop tautologies and false literals.
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() && l.Var() == prev.Var() {
			return true // tautology
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			prev = l
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: append([]Lit(nil), out...)}
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

func (s *Solver) attach(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Sign() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = len(s.trailLim)
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		s.watches[p] = nil
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			// Ensure c.lits[1] is the falsified watcher (p falsifies
			// lits whose Not() == p, i.e. lit == p.Not()).
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == lTrue {
				s.watches[p] = append(s.watches[p], c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Unit or conflicting.
			s.watches[p] = append(s.watches[p], c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watches and report.
				s.watches[p] = append(s.watches[p], ws[wi+1:]...)
				s.qhead = len(s.trail)
				return c
			}
		}
	}
	return nil
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs 1UIP conflict analysis, returning the learned clause
// (with the asserting literal first) and the backjump level.
func (s *Solver) analyze(confl *clause) ([]Lit, int) {
	seen := make(map[Var]bool)
	var learned []Lit
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1

	for {
		for _, q := range confl.lits {
			if p >= 0 && q == p {
				continue
			}
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Pick the next trail literal at the current level that is seen.
		for idx >= 0 && !seen[s.trail[idx].Var()] {
			idx--
		}
		if idx < 0 {
			break
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()]
		seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
		if confl == nil {
			break
		}
	}
	out := make([]Lit, 0, len(learned)+1)
	out = append(out, p.Not())
	out = append(out, learned...)

	backLvl := 0
	if len(out) > 1 {
		// Second-highest level among the learned literals.
		maxI := 1
		for i := 2; i < len(out); i++ {
			if s.level[out[i].Var()] > s.level[out[maxI].Var()] {
				maxI = i
			}
		}
		out[1], out[maxI] = out[maxI], out[1]
		backLvl = s.level[out[1].Var()]
	}
	return out, backLvl
}

// luby returns the Luby restart sequence value for index i (1-based).
func luby(i int) int {
	for {
		k := 1
		for (1<<k)-1 < i {
			k++
		}
		if (1<<k)-1 == i {
			return 1 << (k - 1)
		}
		// i lies inside the repeated prefix of length 2^(k-1)-1.
		i -= (1 << (k - 1)) - 1
	}
}

// Solve searches for a satisfying assignment of all added constraints.
func (s *Solver) Solve() bool {
	s.Exhausted = false
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	restart := 1
	budget := 100 * luby(restart)
	conflictsHere := 0

	for {
		confl := s.propagate()
		if confl != nil {
			s.nConflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false
			}
			learned, back := s.analyze(confl)
			s.cancelUntil(back)
			if len(learned) == 1 {
				if !s.enqueue(learned[0], nil) {
					s.unsat = true
					return false
				}
			} else {
				c := &clause{lits: learned, learned: true}
				s.attach(c)
				s.clauses = append(s.clauses, c)
				s.enqueue(learned[0], c)
			}
			s.varInc /= 0.95
			if s.MaxConflicts > 0 && s.nConflicts >= s.MaxConflicts {
				s.Exhausted = true
				s.cancelUntil(0)
				return false
			}
			if conflictsHere >= budget {
				restart++
				budget = 100 * luby(restart)
				conflictsHere = 0
				s.cancelUntil(0)
			}
			continue
		}
		// Pick the unassigned variable with the highest activity.
		best := Var(-1)
		bestAct := -1.0
		for v := 0; v < len(s.assign); v++ {
			if s.assign[v] == lUndef && s.activity[v] > bestAct {
				best, bestAct = Var(v), s.activity[v]
			}
		}
		if best < 0 {
			return true // full assignment
		}
		s.newDecisionLevel()
		if s.polarity[best] {
			s.enqueue(Pos(best), nil)
		} else {
			s.enqueue(Neg(best), nil)
		}
	}
}

// Value returns the model value of v after a successful Solve.
func (s *Solver) Value(v Var) bool { return s.assign[v] == lTrue }

// LitValue returns the model value of a literal after a successful Solve.
func (s *Solver) LitValue(l Lit) bool {
	val := s.litValue(l)
	return val == lTrue
}
