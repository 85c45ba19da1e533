// Package sat is the formal layer of the repository: a deterministic,
// stdlib-only CNF satisfiability solver plus Tseitin encoders from the
// gate-level netlist (netlist.Circuit) and the compiled PPSFP evaluation
// form (faultsim.Program) into CNF. Three static-analysis applications sit
// on top of it:
//
//   - Fault proving (ProveFault): the good-vs-faulty miter of a single
//     stuck-at fault. UNSAT proves the fault redundant (untestable by any
//     fully specified pattern); SAT extracts a test cube. ATPG uses it to
//     settle faults its PODEM search Aborted (atpg.SettleAborted), making
//     fault coverage and per-core pattern counts exact.
//   - Combinational equivalence checking (CheckProgram): a miter between a
//     circuit and the Program the PPSFP kernel compiler produced from it,
//     over all observation points — a formal guard on the kernel compiler,
//     independent of the differential and fuzz suites.
//   - SAT-backed lint (internal/lint rules NL013/NL014): provably-constant
//     nets and provably-untestable faults.
//
// Everything here is bit-reproducible by construction: the solver uses a
// fixed decision order (lowest variable index first, false before true —
// no VSIDS, no clause learning, no restarts, no randomness), encoders
// allocate variables in a fixed traversal order, and no wall-clock or
// map-iteration order reaches any result. Two identical calls return
// identical verdicts, identical models, and identical conflict counts.
//
// The solver's one memory is a bounded cache of refuted subtrees keyed by
// their residual formula (DPLL with caching). Unit propagation is
// confluent and the decision rule reads only which variables are
// unassigned, so equal residual formulas root equal subtrees: a cache hit
// is charged the subtree's stored conflict count and the search moves on.
// Verdicts, models and conflict counts are therefore exactly those of the
// memo-free search, while the work is far smaller on the XOR-heavy miters
// of the stand-ins, whose fixed-order search meets the same sub-problem
// under many input prefixes. A conflict count is a property of the
// fixed-order tree, not a measure of the solver's work; Solver.Decisions,
// Propagations and MemoHits measure the work.
package sat

import "fmt"

// Lit is a CNF literal: +v is variable v, -v its negation. Variables are
// numbered from 1; 0 is not a valid literal.
type Lit int32

// Var returns the (positive) variable index of l.
func (l Lit) Var() int32 {
	if l < 0 {
		return int32(-l)
	}
	return int32(l)
}

// Neg returns the complement literal.
func (l Lit) Neg() Lit { return -l }

// Pos reports whether l is the positive (non-negated) literal.
func (l Lit) Pos() bool { return l > 0 }

// String renders the literal in DIMACS style ("3", "-7").
func (l Lit) String() string { return fmt.Sprintf("%d", int32(l)) }

// CNF is a formula under construction: a variable counter and a clause
// list. Build it with NewVar and Add, then hand it to NewSolver. A CNF is
// single-use input for the solver; the solver takes ownership of the
// clause slices.
type CNF struct {
	nVars   int32
	clauses [][]Lit
	units   []Lit
	empty   bool // an always-false clause was added
}

// NewCNF returns an empty formula.
func NewCNF() *CNF { return &CNF{} }

// NewVar allocates a fresh variable and returns its positive literal.
func (f *CNF) NewVar() Lit {
	f.nVars++
	return Lit(f.nVars)
}

// NumVars returns the number of allocated variables.
func (f *CNF) NumVars() int { return int(f.nVars) }

// NumClauses returns the number of clauses added so far (including unit
// clauses, excluding tautologies that Add dropped).
func (f *CNF) NumClauses() int {
	n := len(f.clauses) + len(f.units)
	if f.empty {
		n++
	}
	return n
}

// Add appends the clause (l1 ∨ l2 ∨ ...). Duplicate literals are merged,
// tautologies (x ∨ ¬x ∨ ...) are dropped, and an empty clause marks the
// whole formula unsatisfiable. Literals must reference allocated variables.
func (f *CNF) Add(lits ...Lit) {
	// Deterministic in-place insertion sort by (var, sign); clause arity in
	// circuit encodings is tiny, so this beats sort.Slice's indirection.
	c := make([]Lit, 0, len(lits))
	for _, l := range lits {
		v := l.Var()
		if l == 0 || v > f.nVars {
			panic(fmt.Sprintf("sat: clause literal %d references an unallocated variable", l))
		}
		c = append(c, l)
	}
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && litLess(c[j], c[j-1]); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	out := c[:0]
	for i, l := range c {
		if i > 0 && l == c[i-1] {
			continue // duplicate
		}
		if i > 0 && l == c[i-1].Neg() {
			return // tautology: x ∨ ¬x
		}
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		f.empty = true
	case 1:
		f.units = append(f.units, out[0])
	default:
		f.clauses = append(f.clauses, out)
	}
}

// litLess orders literals by variable index, negative before positive, so
// clause normalization is independent of caller order.
func litLess(a, b Lit) bool {
	if a.Var() != b.Var() {
		return a.Var() < b.Var()
	}
	return a < b
}
