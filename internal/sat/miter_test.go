package sat

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestProveFaultMatchesOracle is the exhaustive cross-check: on every
// fixture narrow enough to brute-force, for every collapsed fault, the
// miter verdict must coincide with the serial reference simulator run over
// every fully specified pattern (UNSAT ⟺ no pattern detects the fault), and
// every extracted cube must be confirmed by the same reference.
func TestProveFaultMatchesOracle(t *testing.T) {
	tested := 0
	for name, c := range fixtureCircuits(t) {
		width := len(c.PseudoInputs())
		if width > faultsim.MaxOracleInputs {
			continue
		}
		flist := faults.CollapsedUniverse(c)
		table := faultsim.SerialSimulate(c, faultsim.AllPatterns(width), flist)
		for i, f := range flist {
			detectable := table.DetectedBy[i] != faultsim.Undetected
			proof := ProveFault(c, f)
			if proof.Redundant == detectable {
				t.Fatalf("%s fault %s: miter redundant=%v, oracle detectable=%v",
					name, f.String(c), proof.Redundant, detectable)
			}
			if proof.Redundant {
				if proof.Cube != nil {
					t.Fatalf("%s fault %s: redundant proof carries a cube", name, f.String(c))
				}
				continue
			}
			if proof.Cube == nil {
				t.Fatalf("%s fault %s: testable but no cube extracted", name, f.String(c))
			}
			if !faultsim.SerialDetects(c, proof.Cube, f) {
				t.Fatalf("%s fault %s: extracted cube %s does not detect the fault",
					name, f.String(c), proof.Cube)
			}
			tested++
		}
	}
	if tested == 0 {
		t.Fatal("cross-check exercised no faults")
	}
}

// TestProveFaultRedundantCircuit pins known-redundant structures.
func TestProveFaultRedundantCircuit(t *testing.T) {
	c := netlist.New("red")
	a := c.MustAddGate("a", netlist.Input)
	n := c.MustAddGate("n", netlist.Not, a)
	y := c.MustAddGate("y", netlist.And, a, n) // constant 0
	o := c.MustAddGate("o", netlist.Or, y, a)
	c.MustAddGate("dead", netlist.Not, o) // drives nothing: unobservable
	if err := c.MarkOutput(o); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		f    faults.Fault
		want bool // redundant
	}{
		{faults.Fault{Gate: y, Pin: faults.StemPin, Stuck: logic.Zero}, true},                // y is constant 0
		{faults.Fault{Gate: y, Pin: faults.StemPin, Stuck: logic.One}, false},                // y SA1 flips o when a=0
		{faults.Fault{Gate: o, Pin: faults.StemPin, Stuck: logic.Zero}, false},               // o follows a
		{faults.Fault{Gate: netlist.GateID(4), Pin: faults.StemPin, Stuck: logic.One}, true}, // dead net
	}
	for _, tc := range cases {
		proof := ProveFault(c, tc.f)
		if proof.Redundant != tc.want {
			t.Fatalf("fault %s: redundant=%v, want %v", tc.f.String(c), proof.Redundant, tc.want)
		}
		if !proof.Redundant && !faultsim.SerialDetects(c, proof.Cube, tc.f) {
			t.Fatalf("fault %s: cube %s fails to detect", tc.f.String(c), proof.Cube)
		}
	}
}

// TestProveFaultDFFDataPin covers the capture-frame special case on a
// circuit where a DFF data pin branches off a multi-fanout net.
func TestProveFaultDFFDataPin(t *testing.T) {
	c := netlist.New("dffpin")
	a := c.MustAddGate("a", netlist.Input)
	b := c.MustAddGate("b", netlist.Input)
	n := c.MustAddGate("n", netlist.And, a, b)
	d := c.MustAddGate("d", netlist.DFF, n)
	y := c.MustAddGate("y", netlist.Or, n, d)
	if err := c.MarkOutput(y); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, stuck := range []logic.V{logic.Zero, logic.One} {
		f := faults.Fault{Gate: d, Pin: 0, Stuck: stuck}
		proof := ProveFault(c, f)
		if proof.Redundant {
			t.Fatalf("DFF data-pin fault %s should be testable", f.String(c))
		}
		if !faultsim.SerialDetects(c, proof.Cube, f) {
			t.Fatalf("fault %s: cube %s fails to detect", f.String(c), proof.Cube)
		}
	}
}

// TestProveFaultDeterministic runs the full prover twice over a fixture and
// requires identical verdicts, cubes and conflict counts.
func TestProveFaultDeterministic(t *testing.T) {
	c := fixtureCircuits(t)["redundant"]
	flist := faults.CollapsedUniverse(c)
	run := func() []Proof {
		out := make([]Proof, 0, len(flist))
		for _, f := range flist {
			out = append(out, ProveFault(c, f))
		}
		return out
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i].Redundant != p2[i].Redundant || p1[i].Conflicts != p2[i].Conflicts ||
			p1[i].Cube.String() != p2[i].Cube.String() {
			t.Fatalf("fault %s: proofs differ across runs: %+v vs %+v",
				flist[i].String(c), p1[i], p2[i])
		}
	}
}

// TestAnalyzerConstantNet checks ConstantNet against exhaustive simulation.
func TestAnalyzerConstantNet(t *testing.T) {
	for name, c := range fixtureCircuits(t) {
		width := len(c.PseudoInputs())
		if width > 10 {
			continue
		}
		patterns := faultsim.AllPatterns(width)
		simValues := make([][]bool, len(patterns))
		simr := newBoolSim(c)
		for k, p := range patterns {
			simValues[k] = simr.eval(p)
		}
		a := NewAnalyzer(c)
		for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
			always0, always1 := true, true
			for k := range patterns {
				if simValues[k][id] {
					always0 = false
				} else {
					always1 = false
				}
			}
			val, constant := a.ConstantNet(id)
			if constant != (always0 || always1) {
				t.Fatalf("%s net %q: analyzer constant=%v, exhaustive=%v",
					name, c.Gate(id).Name, constant, always0 || always1)
			}
			if constant && val != always1 {
				t.Fatalf("%s net %q: analyzer value %v, exhaustive always1=%v",
					name, c.Gate(id).Name, val, always1)
			}
		}
	}
}

// boolSim is a minimal two-valued evaluator used only by tests.
type boolSim struct {
	c *netlist.Circuit
}

func newBoolSim(c *netlist.Circuit) *boolSim { return &boolSim{c: c} }

func (b *boolSim) eval(p logic.Cube) []bool {
	c := b.c
	vals := make([]bool, c.NumGates())
	for i, id := range c.PseudoInputs() {
		vals[id] = p[i] == logic.One
	}
	in := make([]logic.V, 0, 8)
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		in = in[:0]
		for _, f := range g.Fanin {
			in = append(in, logic.FromBool(vals[f]))
		}
		vals[id] = sim.EvalGate(g.Type, in) == logic.One
	}
	return vals
}
