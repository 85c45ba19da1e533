package sat

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/faults"
)

// referenceSolve is the plain fixed-order chronological DPLL search the
// memoized Solver must reproduce exactly: the same verdict, the same model
// and the same cumulative conflict count. It walks every refuted subtree
// leaf by leaf, so it is a test oracle only; it shares the solver's
// propagation and trail code but never engages the memo.
func referenceSolve(s *Solver, assumptions ...Lit) bool {
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

	var stack []decision
	for _, a := range assumptions {
		switch s.value(a) {
		case 1:
			continue // already implied
		case -1:
			s.conflicts++
			return false // contradicts the formula or an earlier assumption
		}
		stack = append(stack, decision{lit: a, trailLen: len(s.trail), assumed: true})
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
		// Fixed polarity order: false first.
		stack = append(stack, decision{lit: Lit(v).Neg(), trailLen: len(s.trail)})
		s.enqueue(Lit(v).Neg())
		for !s.propagate() {
			s.conflicts++
			flipped := false
			for len(stack) > 0 {
				d := &stack[len(stack)-1]
				if d.assumed {
					return false // exhausted everything below the assumptions
				}
				s.undoTo(d.trailLen)
				if !d.flipped {
					d.flipped = true
					d.lit = d.lit.Neg()
					s.enqueue(d.lit)
					flipped = true
					break
				}
				stack = stack[:len(stack)-1]
			}
			if !flipped && len(stack) == 0 {
				return false // both polarities exhausted at every level
			}
		}
	}
}

// randomClauses draws a random formula over nVars variables from n random
// constraints over nearby variables. One in eight is a clause of width 1–4;
// the rest are parity constraints x⊕y⊕z = b, each encoded as the clauses
// forbidding the wrong parity. Parities stand in for the XOR cones of
// circuit miters: a fixed-order search over them keeps meeting the same
// residual formula. Repeated and complementary literals are left for
// CNF.Add to merge or drop.
func randomClauses(r *rand.Rand, nVars, n int) [][]Lit {
	var clauses [][]Lit
	near := func(base int) Lit {
		l := Lit(1 + (base+r.Intn(4))%nVars)
		if r.Intn(2) == 0 {
			return l.Neg()
		}
		return l
	}
	for j := 0; j < n; j++ {
		base := r.Intn(nVars)
		if r.Intn(8) == 0 {
			cl := make([]Lit, 1+r.Intn(4))
			for k := range cl {
				cl[k] = near(base)
			}
			clauses = append(clauses, cl)
			continue
		}
		vs := make([]Lit, 3)
		for k := range vs {
			vs[k] = Lit(near(base).Var())
		}
		odd := r.Intn(2)
		for m := 0; m < 1<<len(vs); m++ {
			if bits.OnesCount(uint(m))%2 == odd {
				continue // m has the wanted parity
			}
			cl := make([]Lit, len(vs))
			for k, v := range vs {
				cl[k] = v
				if m>>k&1 == 1 {
					cl[k] = v.Neg()
				}
			}
			clauses = append(clauses, cl)
		}
	}
	return clauses
}

// twinSolvers builds two solvers over the same clauses: one for Solve and
// one for referenceSolve.
func twinSolvers(nVars int, clauses [][]Lit) (*Solver, *Solver) {
	build := func() *Solver {
		f := NewCNF()
		for i := 0; i < nVars; i++ {
			f.NewVar()
		}
		for _, cl := range clauses {
			f.Add(cl...)
		}
		return NewSolver(f)
	}
	return build(), build()
}

// solveBoth runs Solve and referenceSolve under the same assumptions and
// fails unless verdict, model and cumulative conflict count agree.
func solveBoth(t testing.TB, s, ref *Solver, assumptions []Lit) {
	t.Helper()
	if err := compareSolve(s, ref, assumptions); err != nil {
		t.Fatal(err)
	}
}

// compareSolve is solveBoth's check, returning the mismatch as an error.
func compareSolve(s, ref *Solver, assumptions []Lit) error {
	got, want := s.Solve(assumptions...), referenceSolve(ref, assumptions...)
	switch {
	case got != want:
		return fmt.Errorf("assumptions %v: Solve = %v, reference = %v", assumptions, got, want)
	case s.Conflicts() != ref.Conflicts():
		return fmt.Errorf("assumptions %v: cumulative conflicts %d, reference %d", assumptions, s.Conflicts(), ref.Conflicts())
	case got && !slices.Equal(s.Model(), ref.Model()):
		return fmt.Errorf("assumptions %v: model differs from the reference", assumptions)
	}
	return nil
}

// TestSolverMatchesReference differentially checks the memoized solver
// against the memo-free reference search: random formulas under assumption
// sequences on one reused solver, every collapsed fault's miter on every
// fixture, and both again with tables of one and two buckets that force
// collisions and replacement.
func TestSolverMatchesReference(t *testing.T) {
	for _, buckets := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("buckets=%d", buckets), func(t *testing.T) {
			memoSlots = buckets
			t.Cleanup(func() { memoSlots = 0 })
			var randomHits, fixtureHits int64
			r := rand.New(rand.NewSource(20261017))
			for iter := 0; iter < 1000; iter++ {
				nVars := 1 + r.Intn(14)
				s, ref := twinSolvers(nVars, randomClauses(r, nVars, 1+3*nVars/4))
				for call := 0; call < 4; call++ {
					var assumptions []Lit
					if call > 0 {
						for k := r.Intn(4); k > 0; k-- {
							a := Lit(1 + r.Intn(nVars))
							if r.Intn(2) == 0 {
								a = a.Neg()
							}
							assumptions = append(assumptions, a)
						}
					}
					solveBoth(t, s, ref, assumptions)
				}
				randomHits += s.MemoHits()
			}
			for name, c := range fixtureCircuits(t) {
				for _, f := range faults.CollapsedUniverse(c) {
					p := ProveFault(c, f)
					cnf, good := faultMiter(c, f)
					if cnf == nil {
						if !p.Redundant || p.Conflicts != 0 {
							t.Fatalf("%s %s: trivially redundant miter, ProveFault %+v", name, f.String(c), p)
						}
						continue
					}
					ref := NewSolver(cnf)
					sat := referenceSolve(ref)
					if p.Redundant == sat || p.Conflicts != ref.Conflicts() {
						t.Fatalf("%s %s: ProveFault redundant=%v conflicts=%d, reference sat=%v conflicts=%d",
							name, f.String(c), p.Redundant, p.Conflicts, sat, ref.Conflicts())
					}
					if sat && p.Cube.String() != good.InputCube(ref).String() {
						t.Fatalf("%s %s: cube %s, reference %s", name, f.String(c), p.Cube, good.InputCube(ref))
					}
					fixtureHits += p.MemoHits
				}
			}
			if randomHits == 0 || fixtureHits == 0 {
				t.Fatalf("memo hits: %d on random formulas, %d on fixture miters; both legs must exercise the cache",
					randomHits, fixtureHits)
			}
		})
	}
}

// TestSolverConcurrentMemo solves from several goroutines at once, so the
// pooled memo tables pass between solvers while others are in use; every
// solve must still match the reference.
func TestSolverConcurrentMemo(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 200; iter++ {
				nVars := 1 + r.Intn(14)
				s, ref := twinSolvers(nVars, randomClauses(r, nVars, 1+3*nVars/4))
				if err := compareSolve(s, ref, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
