package sat

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// FuzzTseitin stresses the CNF encoder with arbitrary parsed netlists via
// the self-miter property: two independently encoded copies of the same
// circuit over shared stimulus variables, constrained to agree on every
// observation point, must always be satisfiable — an UNSAT verdict is a
// hard encoder or solver failure. The satisfying model is then replayed
// through the five-valued simulator: every encoded gate literal, in both
// copies, must equal the simulated value.
func FuzzTseitin(f *testing.F) {
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\nn = NOT(a)\nd = DFF(n)\ny = XOR(n, d)\n")
	f.Add("INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G7)\nG5 = OR(G1, G2)\nG6 = XNOR(G2, G3)\nG7 = AND(G5, G6)\n")
	f.Add("x = CONST1()\nz = CONST0()\nOUTPUT(w)\nw = NOR(x, z)\n")
	f.Add("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = XOR(a, b, c)\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := netlist.ParseBenchString("fuzz", src)
		if err != nil {
			return
		}
		if c.NumGates() > 400 {
			return // keep a fuzz iteration cheap
		}

		cnf := NewCNF()
		enc := NewEncoder(cnf)
		first := enc.Circuit(c, nil)
		// Second copy: same source literals, independent gate variables
		// (sharing is off, so nothing collapses).
		second := &CircuitEncoding{C: c, lit: make([]Lit, c.NumGates())}
		for _, id := range c.PseudoInputs() {
			second.setLit(id, first.Lit(id))
		}
		enc.encodeGates(second, nil)

		// Constrain every observation point to agree across the copies.
		for _, id := range c.PseudoOutputs() {
			a, b := first.Lit(id), second.Lit(id)
			cnf.Add(a.Neg(), b)
			cnf.Add(a, b.Neg())
		}

		s := NewSolver(cnf)
		if !s.Solve() {
			t.Fatalf("self-miter UNSAT for circuit:\n%s", src)
		}
		cube := first.InputCube(s)
		simulator := sim.New(c)
		simulator.ApplyStimulus(cube)
		simulator.Run()
		for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
			want := simulator.Value(id)
			if want != logic.Zero && want != logic.One {
				continue
			}
			wantB := want == logic.One
			if got := s.ValueOf(first.Lit(id)); got != wantB {
				t.Fatalf("gate %q: first copy modeled %v, simulation says %v\n%s",
					c.Gate(id).Name, got, want, src)
			}
			if got := s.ValueOf(second.Lit(id)); got != wantB {
				t.Fatalf("gate %q: second copy modeled %v, simulation says %v\n%s",
					c.Gate(id).Name, got, want, src)
			}
		}
	})
}

// FuzzSolve checks the memoized solver against the memo-free reference
// search on arbitrary small formulas. The first byte picks the variable
// count (1–14); each following clause is a width byte (1–4) and that many
// literal bytes. The bytes left over once a clause no longer fits become
// the assumptions of a second Solve on the same solver.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 1, 1, 2, 1, 3})
	f.Add([]byte{13, 3, 0, 2, 5, 3, 1, 3, 6, 2, 9, 10, 4, 11, 12, 13, 1, 3, 7, 21, 22, 23, 24})
	f.Add([]byte{6, 2, 0, 2, 2, 1, 3, 2, 4, 5, 2, 6, 7, 2, 8, 9, 2, 10, 11, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nVars := 1 + int(data[0])%14
		lit := func(b byte) Lit {
			l := Lit(1 + int(b>>1)%nVars)
			if b&1 == 1 {
				return l.Neg()
			}
			return l
		}
		var clauses [][]Lit
		rest := data[1:]
		for len(rest) > 0 {
			w := 1 + int(rest[0])%4
			if len(rest) < 1+w {
				break
			}
			cl := make([]Lit, w)
			for k := range cl {
				cl[k] = lit(rest[1+k])
			}
			clauses = append(clauses, cl)
			rest = rest[1+w:]
		}
		var assumptions []Lit
		for _, b := range rest {
			assumptions = append(assumptions, lit(b))
		}
		s, ref := twinSolvers(nVars, clauses)
		solveBoth(t, s, ref, nil)
		solveBoth(t, s, ref, assumptions)
	})
}
