package sat

import (
	"context"
	"errors"
	"testing"
)

// pigeonhole returns the CNF of n+1 pigeons in n holes: unsatisfiable, and
// exponential for a DPLL without learning.
func pigeonhole(n int) *CNF {
	f := NewCNF()
	v := make([][]Lit, n+1)
	for p := range v {
		v[p] = make([]Lit, n)
		for h := range v[p] {
			v[p][h] = f.NewVar()
		}
		f.Add(v[p]...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				f.Add(v[p1][h].Neg(), v[p2][h].Neg())
			}
		}
	}
	return f
}

// TestSolveContextStops holds the stop contract: a cancelled context stops
// a long search with the context's error and no verdict, and a context
// that never fires changes neither the verdict nor any counter.
func TestSolveContextStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSolver(pigeonhole(8))
	sat, err := s.SolveContext(ctx)
	if !errors.Is(err, context.Canceled) || sat {
		t.Fatalf("cancelled search: sat %v, err %v; want false and context.Canceled", sat, err)
	}

	live, stop := context.WithCancel(context.Background())
	defer stop()
	a, b := NewSolver(pigeonhole(8)), NewSolver(pigeonhole(8))
	want := a.Solve()
	if s.Decisions() >= a.Decisions() {
		t.Fatalf("cancelled search made %d decisions, the full one %d", s.Decisions(), a.Decisions())
	}
	got, err := b.SolveContext(live)
	if err != nil || got != want {
		t.Fatalf("live context: sat %v, err %v; Solve says %v", got, err, want)
	}
	if a.Conflicts() != b.Conflicts() || a.Decisions() != b.Decisions() ||
		a.Propagations() != b.Propagations() || a.MemoHits() != b.MemoHits() {
		t.Fatalf("counters moved under a live context: %d/%d/%d/%d vs %d/%d/%d/%d",
			b.Conflicts(), b.Decisions(), b.Propagations(), b.MemoHits(),
			a.Conflicts(), a.Decisions(), a.Propagations(), a.MemoHits())
	}
	if b.Decisions() < 2*pollEvery {
		t.Fatalf("pigeonhole(8) took %d decisions, too few to reach a poll", b.Decisions())
	}
}
