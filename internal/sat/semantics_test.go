package sat

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestGateSemanticsAgree holds every production reader of the netlist gate
// table to the five-valued reference evaluator sim.EvalGate, exhaustively:
// for every combinational gate type at every arity from its minimum to 4,
// on a circuit of that one gate over distinct inputs, and over every input
// vector in {0,1,X}^k,
//
//   - the compiled Program computes EvalGate's output, X loaded as 0;
//   - the CNF with the binary inputs fixed forces EvalGate's output: SAT
//     with it, UNSAT with its complement, and SAT both ways when EvalGate
//     says X (a lone gate over distinct inputs has no reconvergence, so X
//     is exact), and CheckProgram closes structurally;
//   - EvalGate is X-monotone: refining an X input never changes a binary
//     output;
//   - every pair of faults that Collapse puts in one class is detected by
//     exactly the same exhaustive patterns.
func TestGateSemanticsAgree(t *testing.T) {
	for typ := netlist.GateType(0); typ.Valid(); typ++ {
		if !typ.Combinational() {
			continue
		}
		hi := typ.MaxFanin()
		if hi < 0 {
			hi = 4
		}
		for k := typ.MinFanin(); k <= hi; k++ {
			t.Run(fmt.Sprintf("%v/%d", typ, k), func(t *testing.T) {
				c, gate := oneGate(t, typ, k)
				vecs := ternaryVectors(k)
				agreeProgram(t, c, gate, vecs)
				agreeCNF(t, c, gate, vecs)
				agreeXMonotone(t, typ, vecs)
				agreeCollapse(t, c)
			})
		}
	}
}

// oneGate builds a circuit of one gate of type typ over k inputs, the gate
// a primary output.
func oneGate(t *testing.T, typ netlist.GateType, k int) (*netlist.Circuit, netlist.GateID) {
	t.Helper()
	c := netlist.New("one")
	in := make([]netlist.GateID, k)
	for j := range in {
		in[j] = c.MustAddGate(fmt.Sprintf("i%d", j), netlist.Input)
	}
	g := c.MustAddGate("g", typ, in...)
	if err := c.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c, g
}

// ternaryVectors lists {0,1,X}^k.
func ternaryVectors(k int) []logic.Cube {
	vecs := []logic.Cube{{}}
	for j := 0; j < k; j++ {
		var next []logic.Cube
		for _, v := range vecs {
			for _, b := range []logic.V{logic.Zero, logic.One, logic.X} {
				next = append(next, append(append(logic.Cube(nil), v...), b))
			}
		}
		vecs = next
	}
	return vecs
}

func evalGate(c *netlist.Circuit, gate netlist.GateID, v logic.Cube) logic.V {
	return sim.EvalGate(c.Gate(gate).Type, v)
}

func agreeProgram(t *testing.T, c *netlist.Circuit, gate netlist.GateID, vecs []logic.Cube) {
	t.Helper()
	p := faultsim.Compile(c)
	dense := make([]uint64, len(p.PPIs()))
	words := make([]uint64, p.NumGates())
	for lo := 0; lo < len(vecs); lo += 64 {
		batch := vecs[lo:min(lo+64, len(vecs))]
		p.Load(dense, nil, batch)
		for i, id := range p.PPIs() {
			words[id] = dense[i]
		}
		p.Run(words, p.Order())
		for lane, v := range batch {
			want := evalGate(c, gate, v.Fill(func(int) logic.V { return logic.Zero }))
			if got := logic.FromBool(words[gate]>>lane&1 == 1); got != want {
				t.Fatalf("inputs %v: Program %v, EvalGate %v (X as 0)", v, got, want)
			}
		}
	}
}

func agreeCNF(t *testing.T, c *netlist.Circuit, gate netlist.GateID, vecs []logic.Cube) {
	t.Helper()
	cnf := NewCNF()
	ce := NewEncoder(cnf).Circuit(c, nil)
	s := NewSolver(cnf)
	out := ce.Lit(gate)
	for _, v := range vecs {
		var fixed []Lit
		for j, id := range c.PseudoInputs() {
			switch v[j] {
			case logic.Zero:
				fixed = append(fixed, ce.Lit(id).Neg())
			case logic.One:
				fixed = append(fixed, ce.Lit(id))
			}
		}
		want := evalGate(c, gate, v)
		for _, o := range []logic.V{logic.Zero, logic.One} {
			l := out
			if o == logic.Zero {
				l = out.Neg()
			}
			sat := s.Solve(append(fixed, l)...)
			if wantSAT := want == logic.X || want == o; sat != wantSAT {
				t.Fatalf("inputs %v: CNF with output %v is SAT=%v, EvalGate says %v", v, o, sat, want)
			}
		}
	}
	if res := CheckProgram(c, faultsim.Compile(c)); !res.Equivalent || !res.Structural {
		t.Fatalf("CheckProgram: %+v", res)
	}
}

func agreeXMonotone(t *testing.T, typ netlist.GateType, vecs []logic.Cube) {
	t.Helper()
	for _, v := range vecs {
		want := sim.EvalGate(typ, v)
		if !want.Binary() {
			continue
		}
		for j := range v {
			if v[j] != logic.X {
				continue
			}
			for _, b := range []logic.V{logic.Zero, logic.One} {
				w := append(logic.Cube(nil), v...)
				w[j] = b
				if got := sim.EvalGate(typ, w); got != want {
					t.Fatalf("EvalGate(%v) = %v but EvalGate(%v) = %v", v, want, w, got)
				}
			}
		}
	}
}

func agreeCollapse(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	fs := faults.Universe(c)
	_, classOf := faults.Collapse(c, fs)
	detected := make(map[faults.Fault][]bool, len(fs))
	for _, p := range faultsim.AllPatterns(len(c.PseudoInputs())) {
		res := faultsim.SerialSimulate(c, []logic.Cube{p}, fs)
		for i, f := range fs {
			detected[f] = append(detected[f], res.DetectedBy[i] == 0)
		}
	}
	for _, f := range fs {
		rep := classOf[f]
		if fmt.Sprint(detected[f]) != fmt.Sprint(detected[rep]) {
			t.Fatalf("%s collapsed into %s, but detected by %v vs %v",
				f.String(c), rep.String(c), detected[f], detected[rep])
		}
	}
}
