package netlist

import (
	"strings"
	"testing"
)

// buildC17 constructs the classic ISCAS'85 c17 netlist programmatically:
// six NAND gates, five inputs, two outputs.
func buildC17(t *testing.T) *Circuit {
	t.Helper()
	c := New("c17")
	g1 := c.MustAddGate("G1", Input)
	g2 := c.MustAddGate("G2", Input)
	g3 := c.MustAddGate("G3", Input)
	g6 := c.MustAddGate("G6", Input)
	g7 := c.MustAddGate("G7", Input)
	g10 := c.MustAddGate("G10", Nand, g1, g3)
	g11 := c.MustAddGate("G11", Nand, g3, g6)
	g16 := c.MustAddGate("G16", Nand, g2, g11)
	g19 := c.MustAddGate("G19", Nand, g11, g7)
	g22 := c.MustAddGate("G22", Nand, g10, g16)
	g23 := c.MustAddGate("G23", Nand, g16, g19)
	if err := c.MarkOutput(g22); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(g23); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildAndStats(t *testing.T) {
	c := buildC17(t)
	s := c.ComputeStats()
	if s.Inputs != 5 || s.Outputs != 2 || s.Gates != 6 || s.DFFs != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Depth != 3 {
		t.Errorf("depth = %d, want 3", s.Depth)
	}
	nands := 0
	for id := 0; id < c.NumGates(); id++ {
		if c.Gate(GateID(id)).Type == Nand {
			nands++
		}
	}
	if nands != 6 {
		t.Errorf("NAND count = %d, want 6", nands)
	}
	if !strings.Contains(s.String(), "c17") {
		t.Errorf("Stats.String = %q", s.String())
	}
}

func TestAddGateErrors(t *testing.T) {
	c := New("t")
	a := c.MustAddGate("a", Input)
	if _, err := c.AddGate("a", Input); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := c.AddGate("", Input); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.AddGate("b", And, a); err == nil {
		t.Error("AND with one fanin accepted")
	}
	if _, err := c.AddGate("b", Not, a, a); err == nil {
		t.Error("NOT with two fanin accepted")
	}
	if _, err := c.AddGate("b", Not, GateID(99)); err == nil {
		t.Error("unknown fanin accepted")
	}
	if _, err := c.AddGate("b", GateType(200), a); err == nil {
		t.Error("invalid gate type accepted")
	}
	if _, err := c.AddGate("b", Input, a); err == nil {
		t.Error("INPUT with fanin accepted")
	}
	if err := c.MarkOutput(GateID(99)); err == nil {
		t.Error("MarkOutput of unknown gate accepted")
	}
	b := c.MustAddGate("b", Not, a)
	if err := c.MarkOutput(b); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(b); err == nil {
		t.Error("double MarkOutput accepted")
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("late", Input); err == nil {
		t.Error("AddGate after Finalize accepted")
	}
	if err := c.MarkOutput(a); err == nil {
		t.Error("MarkOutput after Finalize accepted")
	}
}

func TestTopoOrderRespectsLevels(t *testing.T) {
	c := buildC17(t)
	seen := make(map[GateID]bool)
	for _, in := range c.Inputs() {
		seen[in] = true
	}
	for _, id := range c.TopoOrder() {
		for _, f := range c.Gate(id).Fanin {
			if !seen[f] {
				t.Fatalf("gate %s evaluated before fanin %s", c.Gate(id).Name, c.Gate(f).Name)
			}
			if c.Level(f) >= c.Level(id) {
				t.Fatalf("level(%s)=%d not below level(%s)=%d",
					c.Gate(f).Name, c.Level(f), c.Gate(id).Name, c.Level(id))
			}
		}
		seen[id] = true
	}
	if len(c.TopoOrder()) != 6 {
		t.Errorf("topo order has %d gates, want 6", len(c.TopoOrder()))
	}
}

func TestSequentialCircuitLevelization(t *testing.T) {
	// A 2-bit shift register with feedback through an inverter:
	// in -> ff1 -> ff2 -> not -> out, feedback not used by ffs, so there is
	// also a genuine loop: ff1's input is XOR(in, not(ff2)).
	c := New("seq")
	in := c.MustAddGate("in", Input)
	// Forward-declared sequential loop built programmatically: create ffs
	// first with placeholder fanin via the bench deferred helper.
	ff1, err := c.addDFFDeferred("ff1")
	if err != nil {
		t.Fatal(err)
	}
	ff2 := c.MustAddGate("ff2", DFF, ff1)
	nt := c.MustAddGate("nt", Not, ff2)
	x := c.MustAddGate("x", Xor, in, nt)
	c.gates[ff1].Fanin = []GateID{x}
	if err := c.MarkOutput(nt); err != nil {
		t.Fatal(err)
	}
	if err := c.Finalize(); err != nil {
		t.Fatalf("sequential loop through DFFs must levelize: %v", err)
	}
	if c.Level(ff1) != 0 || c.Level(ff2) != 0 {
		t.Error("DFF levels must be 0")
	}
	if c.Level(x) <= c.Level(nt) {
		t.Error("xor must be after not")
	}
	ppis := c.PseudoInputs()
	if len(ppis) != 3 { // in, ff1, ff2
		t.Errorf("pseudo inputs = %d, want 3", len(ppis))
	}
	ppos := c.PseudoOutputs()
	if len(ppos) != 3 { // nt (PO), x (ff1.D), ff1 (ff2.D)
		t.Errorf("pseudo outputs = %d, want 3", len(ppos))
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	c := New("cyc")
	a := c.MustAddGate("a", Input)
	// Build a cycle manually: u = AND(a, v), v = BUF(u).
	u := GateID(len(c.gates))
	c.gates = append(c.gates, Gate{ID: u, Type: And, Name: "u", Fanin: []GateID{a, u + 1}})
	c.byName["u"] = u
	v := GateID(len(c.gates))
	c.gates = append(c.gates, Gate{ID: v, Type: Buf, Name: "v", Fanin: []GateID{u}})
	c.byName["v"] = v
	if err := c.Finalize(); err == nil {
		t.Fatal("combinational cycle not detected")
	}
}

func TestFanout(t *testing.T) {
	c := buildC17(t)
	g11, _ := c.Lookup("G11")
	fo := c.Fanout(g11)
	if len(fo) != 2 {
		t.Fatalf("fanout(G11) = %d, want 2", len(fo))
	}
	names := map[string]bool{}
	for _, f := range fo {
		names[c.Gate(f).Name] = true
	}
	if !names["G16"] || !names["G19"] {
		t.Errorf("fanout names = %v", names)
	}
}

func TestConeExtraction(t *testing.T) {
	c := buildC17(t)
	g22, _ := c.Lookup("G22")
	g23, _ := c.Lookup("G23")
	c22 := c.ExtractCone(g22)
	c23 := c.ExtractCone(g23)

	// G22's cone: G22, G10, G16, G11 plus inputs G1,G2,G3,G6 -> 8 gates.
	if c22.Width() != 4 {
		t.Errorf("cone(G22) width = %d, want 4", c22.Width())
	}
	if c22.Size() != 8 {
		t.Errorf("cone(G22) size = %d, want 8", c22.Size())
	}
	// G23's cone: G23, G16, G19, G11, inputs G2,G3,G6,G7.
	if c23.Width() != 4 {
		t.Errorf("cone(G23) width = %d, want 4", c23.Width())
	}
	// The two cones overlap (G16, G11 shared, plus shared inputs).
	if SupportOverlap(&c22, &c23) != 3 { // G2, G3, G6
		t.Errorf("support overlap = %d, want 3", SupportOverlap(&c22, &c23))
	}
	cones := c.AllCones()
	if len(cones) != 2 {
		t.Errorf("AllCones = %d, want 2", len(cones))
	}
}

func TestGateTypeHelpers(t *testing.T) {
	if Input.Combinational() || DFF.Combinational() {
		t.Error("Input/DFF must not be combinational")
	}
	if !And.Combinational() || !Not.Combinational() {
		t.Error("And/Not must be combinational")
	}
	if And.String() != "AND" || DFF.String() != "DFF" {
		t.Error("gate type names wrong")
	}
	if GateType(99).Valid() {
		t.Error("GateType(99) valid")
	}
	if !strings.Contains(GateType(99).String(), "99") {
		t.Error("invalid gate type String")
	}
	if Const0.MinFanin() != 0 || Const0.MaxFanin() != 0 {
		t.Error("Const0 fanin bounds wrong")
	}
	if And.MaxFanin() != -1 {
		t.Error("And must allow unbounded fanin")
	}
}

func TestMustAddGatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddGate did not panic on error")
		}
	}()
	c := New("t")
	c.MustAddGate("a", Input)
	c.MustAddGate("a", Input)
}

func TestAccessorsPanicBeforeFinalize(t *testing.T) {
	c := New("t")
	a := c.MustAddGate("a", Input)
	defer func() {
		if recover() == nil {
			t.Error("Fanout before Finalize did not panic")
		}
	}()
	c.Fanout(a)
}
