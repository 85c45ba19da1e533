package sim

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

const c17Bench = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func mustParse(t *testing.T, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// c17Ref computes c17's outputs directly from the boolean equations.
func c17Ref(g1, g2, g3, g6, g7 bool) (g22, g23 bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	n10 := nand(g1, g3)
	n11 := nand(g3, g6)
	n16 := nand(g2, n11)
	n19 := nand(n11, g7)
	return nand(n10, n16), nand(n16, n19)
}

func TestSimulatorMatchesReferenceExhaustively(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	s := New(c)
	if s.NumPseudoInputs() != 5 || s.NumPseudoOutputs() != 2 {
		t.Fatalf("frames: %d/%d", s.NumPseudoInputs(), s.NumPseudoOutputs())
	}
	for bits := 0; bits < 32; bits++ {
		stim := make(logic.Cube, 5)
		var in [5]bool
		for i := 0; i < 5; i++ {
			in[i] = bits>>uint(i)&1 == 1
			stim[i] = logic.FromBool(in[i])
		}
		resp := s.Simulate(stim)
		w22, w23 := c17Ref(in[0], in[1], in[2], in[3], in[4])
		if resp[0] != logic.FromBool(w22) || resp[1] != logic.FromBool(w23) {
			t.Fatalf("bits=%05b: got %v, want %v%v", bits, resp, logic.FromBool(w22), logic.FromBool(w23))
		}
	}
}

func TestSimulatorXPropagation(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	s := New(c)
	// All X in -> all X out.
	stim := logic.NewCube(5)
	resp := s.Simulate(stim)
	for i, v := range resp {
		if v != logic.X {
			t.Errorf("output %d = %v with all-X inputs", i, v)
		}
	}
	// G3=0 forces G10=G11=1 regardless of other inputs:
	// G22 = NAND(1, G16), G16 = NAND(G2, 1) = !G2. So G2=0 -> G16=1 -> G22=0.
	stim[2] = logic.Zero
	stim[1] = logic.Zero
	resp = s.Simulate(stim)
	if resp[0] != logic.Zero {
		t.Errorf("G22 = %v, want 0 (controlled by G3=0,G2=0)", resp[0])
	}
}

func TestSimulatorFaultValuePropagation(t *testing.T) {
	// A D on an input must propagate through sensitized paths.
	c := mustParse(t, "c17", c17Bench)
	s := New(c)
	stim, _ := logic.ParseCube("11111")
	stim[0] = logic.D // G1 carries a fault effect
	resp := s.Simulate(stim)
	// G10 = NAND(D,1) = D̄; G16 = NAND(1, NAND(1,1)=0) = 1;
	// G22 = NAND(D̄,1) = D.
	if resp[0] != logic.D {
		t.Errorf("G22 = %v, want D", resp[0])
	}
	if resp[1].Faulty() {
		t.Errorf("G23 = %v, must not carry the fault", resp[1])
	}
}

func TestEvalGateAllTypes(t *testing.T) {
	one, zero := logic.One, logic.Zero
	cases := []struct {
		t    netlist.GateType
		in   []logic.V
		want logic.V
	}{
		{netlist.Buf, []logic.V{one}, one},
		{netlist.Not, []logic.V{one}, zero},
		{netlist.And, []logic.V{one, one, zero}, zero},
		{netlist.Nand, []logic.V{one, one, one}, zero},
		{netlist.Or, []logic.V{zero, zero, one}, one},
		{netlist.Nor, []logic.V{zero, zero}, one},
		{netlist.Xor, []logic.V{one, one, one}, one},
		{netlist.Xnor, []logic.V{one, zero}, zero},
		{netlist.Const0, nil, zero},
		{netlist.Const1, nil, one},
	}
	for _, c := range cases {
		if got := EvalGate(c.t, c.in); got != c.want {
			t.Errorf("EvalGate(%v, %v) = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestEvalGatePanicsOnInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EvalGate(Input) did not panic")
		}
	}()
	EvalGate(netlist.Input, nil)
}
