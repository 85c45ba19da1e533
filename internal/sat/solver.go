package sat

import "context"

// Solver is a deterministic DPLL solver with two-watched-literal unit
// propagation and chronological backtracking. There is deliberately no
// VSIDS, no clause learning, no restarts and no randomness: the decision
// order is fixed (lowest unassigned variable index first, false tried
// before true), so a given formula and assumption sequence always produces
// the same verdict, the same model and the same conflict count. Encoders
// in this package allocate stimulus variables first, which turns the fixed
// order into "decide circuit inputs, let propagation evaluate the logic" —
// the classical SAT-ATPG search shape.
//
// The one thing the solver remembers is which subtrees it has refuted,
// keyed by their residual formula (see memo.go). Unit propagation is
// confluent and the decision rule reads only the set of unassigned
// variables, so two nodes with the same residual formula root identical
// subtrees with identical conflict counts; a node whose residual was
// refuted before is skipped and charged the stored count. Conflicts
// therefore counts the conflicts of the full fixed-order DPLL tree — the
// same number the memo-free search reports — not the work done to reach
// the verdict; Decisions, Propagations and MemoHits count that work.
//
// A Solver may be solved repeatedly under different assumptions; each call
// restarts from an empty assignment. Conflicts and the work counters
// accumulate across calls.
type Solver struct {
	nVars   int32
	clauses [][]Lit // all length >= 2
	units   []Lit
	empty   bool

	// watches[watchIdx(l)] lists the clause indices currently watching
	// literal l (their first or second slot holds l).
	watches [][]int32

	assign []int8 // 1-indexed by variable: 0 unknown, +1 true, -1 false
	trail  []Lit
	qhead  int
	stack  []decision
	// cursor is where nextUnassigned starts: every variable below it is
	// assigned. undoTo lowers it to the smallest variable it unassigns.
	cursor int32

	// memo caches refuted subtrees; it is live (memoOn) from the first
	// conflict below the assumptions to the end of that Solve call.
	memo   memo
	memoOn bool

	conflicts    int64
	decisions    int64
	propagations int64
	memoHits     int64

	// ctx stops the running search (see SolveContext); steps counts its
	// search steps, and stopErr holds ctx's error once it stopped.
	ctx     context.Context
	steps   int
	stopErr error
}

// pollEvery is the number of search steps between two polls of ctx.
const pollEvery = 4096

// NewSolver builds a solver over the formula. The solver takes ownership
// of f's clause slices; f must not be modified afterwards.
func NewSolver(f *CNF) *Solver {
	s := &Solver{
		nVars:   f.nVars,
		clauses: f.clauses,
		units:   f.units,
		empty:   f.empty,
		watches: make([][]int32, 2*(f.nVars+1)),
		assign:  make([]int8, f.nVars+1),
		cursor:  1,
	}
	for ci, c := range s.clauses {
		s.watches[watchIdx(c[0])] = append(s.watches[watchIdx(c[0])], int32(ci))
		s.watches[watchIdx(c[1])] = append(s.watches[watchIdx(c[1])], int32(ci))
	}
	return s
}

// watchIdx maps a literal to its watch-list slot: 2v for +v, 2v+1 for -v.
func watchIdx(l Lit) int32 {
	if l > 0 {
		return 2 * int32(l)
	}
	return 2*int32(-l) + 1
}

// Conflicts returns the cumulative conflict count of every Solve call on
// this solver: the number of conflicts of the fixed-order DPLL tree, of
// which subtrees answered by the memo contribute their stored count.
func (s *Solver) Conflicts() int64 { return s.conflicts }

// Decisions returns the cumulative number of decision literals the search
// asserted, counting both values of a variable it flipped.
func (s *Solver) Decisions() int64 { return s.decisions }

// Propagations returns the cumulative number of assigned literals whose
// watch lists unit propagation visited.
func (s *Solver) Propagations() int64 { return s.propagations }

// MemoHits returns the cumulative number of subtrees the search skipped
// because their residual formula had been refuted before.
func (s *Solver) MemoHits() int64 { return s.memoHits }

// value returns the current truth value of l: +1 true, -1 false, 0 unknown.
func (s *Solver) value(l Lit) int8 {
	v := s.assign[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// enqueue asserts l. It reports false when l is already false (an
// immediate conflict); asserting an already-true literal is a no-op.
func (s *Solver) enqueue(l Lit) bool {
	switch s.value(l) {
	case 1:
		return true
	case -1:
		return false
	}
	if l > 0 {
		s.assign[l.Var()] = 1
	} else {
		s.assign[l.Var()] = -1
	}
	s.trail = append(s.trail, l)
	if s.memoOn {
		s.memo.assign(l)
	}
	return true
}

// undoTo unassigns everything past trail position n.
func (s *Solver) undoTo(n int) {
	for i := len(s.trail) - 1; i >= n; i-- {
		l := s.trail[i]
		s.assign[l.Var()] = 0
		s.cursor = min(s.cursor, l.Var())
		if s.memoOn {
			s.memo.unassign(l)
		}
	}
	s.trail = s.trail[:n]
	s.qhead = n
}

// propagate runs unit propagation to fixpoint. It reports false on
// conflict.
func (s *Solver) propagate() bool {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		// Clauses watching ¬p just lost that watch; visit each.
		idx := watchIdx(p.Neg())
		ws := s.watches[idx]
		kept := ws[:0]
		for wi := 0; wi < len(ws); wi++ {
			ci := ws[wi]
			c := s.clauses[ci]
			// Normalize: the false literal sits in slot 1.
			if c[0] == p.Neg() {
				c[0], c[1] = c[1], c[0]
			}
			if s.value(c[0]) == 1 {
				kept = append(kept, ci) // already satisfied; keep watching
				continue
			}
			// Look for a replacement watch among the tail literals.
			moved := false
			for k := 2; k < len(c); k++ {
				if s.value(c[k]) != -1 {
					c[1], c[k] = c[k], c[1]
					s.watches[watchIdx(c[1])] = append(s.watches[watchIdx(c[1])], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// No replacement: clause is unit on c[0] or a conflict.
			kept = append(kept, ci)
			if !s.enqueue(c[0]) {
				// Conflict: keep the remaining watchers intact and stop.
				kept = append(kept, ws[wi+1:]...)
				s.watches[idx] = kept
				return false
			}
		}
		s.watches[idx] = kept
	}
	return true
}

// decision is one entry of the DPLL decision stack.
type decision struct {
	lit      Lit
	trailLen int
	assumed  bool  // assumption: never flipped; conflict below it is UNSAT
	flipped  bool  // the complementary value has already been explored
	entry    int64 // conflict count when the node was entered
}

// Solve reports whether the formula is satisfiable under the given
// assumption literals. After a true result, Model holds a total, fully
// deterministic assignment.
func (s *Solver) Solve(assumptions ...Lit) bool {
	sat, _ := s.SolveContext(context.Background(), assumptions...)
	return sat
}

// SolveContext is Solve that stops when ctx is done. It polls ctx once
// every pollEvery search steps (decisions and memo hits), by count and not
// by clock, so polling never changes a search that finishes. A stopped
// search returns false with ctx's error: that false is no verdict. The
// counters then hold the work done up to the stop.
func (s *Solver) SolveContext(ctx context.Context, assumptions ...Lit) (bool, error) {
	s.ctx, s.steps, s.stopErr = ctx, 0, nil
	sat := s.search(assumptions)
	s.releaseMemo()
	s.ctx = nil
	return sat, s.stopErr
}

// stopped polls ctx every pollEvery calls and reports whether the search
// must stop, recording ctx's error.
func (s *Solver) stopped() bool {
	if s.steps++; s.steps%pollEvery != 0 {
		return false
	}
	s.stopErr = s.ctx.Err()
	return s.stopErr != nil
}

// search is the fixed-order chronological DPLL search behind Solve.
func (s *Solver) search(assumptions []Lit) bool {
	if s.empty {
		return false
	}
	s.undoTo(0)

	// Level 0: the formula's unit clauses.
	for _, u := range s.units {
		if !s.enqueue(u) {
			s.conflicts++
			return false
		}
	}
	if !s.propagate() {
		s.conflicts++
		return false
	}

	s.stack = s.stack[:0]
	for _, a := range assumptions {
		switch s.value(a) {
		case 1:
			continue // already implied
		case -1:
			s.conflicts++
			return false // contradicts the formula or an earlier assumption
		}
		s.stack = append(s.stack, decision{lit: a, trailLen: len(s.trail), assumed: true})
		s.enqueue(a)
		if !s.propagate() {
			s.conflicts++
			return false
		}
	}

	for {
		v := s.nextUnassigned()
		if v == 0 {
			return true // total assignment, no conflict: a model
		}
		if s.stopped() {
			return false
		}
		if n, ok := s.memoLookup(); ok {
			// This residual formula was refuted before: charge its
			// conflicts and backtrack as if its subtree had been walked.
			s.conflicts += n
			s.memoHits++
			if !s.backtrack() {
				return false
			}
		} else {
			// Fixed polarity order: false first.
			s.decisions++
			s.stack = append(s.stack, decision{lit: Lit(v).Neg(), trailLen: len(s.trail), entry: s.conflicts})
			s.enqueue(Lit(v).Neg())
		}
		for !s.propagate() {
			s.conflicts++
			if !s.memoOn {
				s.engageMemo()
			}
			if !s.backtrack() {
				return false
			}
		}
	}
}

// backtrack undoes to the deepest decision whose complementary value is
// unexplored and asserts that value, leaving it for propagate. Every node
// it leaves with both values refuted is stored in the memo. It reports
// false when no decision above the assumptions is left: the search is
// exhausted.
func (s *Solver) backtrack() bool {
	for len(s.stack) > 0 {
		d := &s.stack[len(s.stack)-1]
		if d.assumed {
			return false
		}
		s.undoTo(d.trailLen)
		if !d.flipped {
			d.flipped = true
			d.lit = d.lit.Neg()
			s.decisions++
			s.enqueue(d.lit)
			return true
		}
		// The trail is back at the node's own residual formula.
		s.memoStore(s.conflicts - d.entry)
		s.stack = s.stack[:len(s.stack)-1]
	}
	return false
}

// nextUnassigned returns the lowest-index unassigned variable, or 0 when
// the assignment is total.
func (s *Solver) nextUnassigned() int32 {
	for v := s.cursor; v <= s.nVars; v++ {
		if s.assign[v] == 0 {
			s.cursor = v
			return v
		}
	}
	s.cursor = s.nVars + 1
	return 0
}

// Model returns the truth value of each variable (1-indexed; index 0 is
// unused) after a satisfiable Solve. The model is total and deterministic.
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars+1)
	for v := int32(1); v <= s.nVars; v++ {
		m[v] = s.assign[v] == 1
	}
	return m
}

// ValueOf returns the modeled truth value of literal l after a
// satisfiable Solve.
func (s *Solver) ValueOf(l Lit) bool { return s.value(l) == 1 }
