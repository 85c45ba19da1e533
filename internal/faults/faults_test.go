package faults

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func mustParse(t *testing.T, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const invChain = `
INPUT(A)
OUTPUT(Y)
N1 = NOT(A)
N2 = NOT(N1)
Y = BUF(N2)
`

func TestUniverseInverterChain(t *testing.T) {
	c := mustParse(t, "chain", invChain)
	fs := Universe(c)
	// Lines: A, N1, N2, Y — all single fanout, so 4 stems x 2 = 8 faults.
	if len(fs) != 8 {
		t.Fatalf("universe = %d faults, want 8", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if !fs[i-1].Less(fs[i]) {
			t.Fatal("universe not sorted")
		}
	}
}

func TestCollapseInverterChain(t *testing.T) {
	// In an inverter/buffer chain every stem fault collapses into one of
	// exactly two classes (even and odd parity).
	c := mustParse(t, "chain", invChain)
	reps, classOf := Collapse(c, Universe(c))
	if len(reps) != 2 {
		t.Fatalf("collapsed to %d classes, want 2", len(reps))
	}
	// A/SA0 and Y/SA0's class must differ from A/SA1's.
	a, _ := c.Lookup("A")
	y, _ := c.Lookup("Y")
	a0 := classOf[Fault{a, StemPin, logic.Zero}]
	a1 := classOf[Fault{a, StemPin, logic.One}]
	y0 := classOf[Fault{y, StemPin, logic.Zero}]
	if a0 == a1 {
		t.Error("opposite polarities collapsed together")
	}
	if y0 != a0 {
		t.Error("Y/SA0 should collapse with A/SA0 through NOT-NOT-BUF")
	}
}

const branchCircuit = `
INPUT(A)
INPUT(B)
OUTPUT(Y)
OUTPUT(Z)
S = AND(A, B)
Y = NOT(S)
Z = BUF(S)
`

func TestUniverseEnumeratesBranches(t *testing.T) {
	c := mustParse(t, "branch", branchCircuit)
	fs := Universe(c)
	// Stems: A, B, S, Y, Z = 10 faults. S has fanout 2, so branch pins
	// Y.0 and Z.0 add 4 more.
	if len(fs) != 14 {
		t.Fatalf("universe = %d faults, want 14", len(fs))
	}
	nBranch := 0
	for _, f := range fs {
		if f.Pin != StemPin {
			nBranch++
		}
	}
	if nBranch != 4 {
		t.Errorf("branch faults = %d, want 4", nBranch)
	}
}

func TestCollapseBranchesFoldIntoGates(t *testing.T) {
	c := mustParse(t, "branch", branchCircuit)
	reps, classOf := Collapse(c, Universe(c))
	// Expected classes: A/SA1, B/SA1, {A/SA0, B/SA0, S/SA0}... S/SA0 is
	// the AND-output fault; branch S->Y SA0 ≡ Y/SA1 (NOT), S->Z SA0 ≡ Z/SA0.
	y, _ := c.Lookup("Y")
	z, _ := c.Lookup("Z")
	if classOf[Fault{y, 0, logic.Zero}] != classOf[Fault{y, StemPin, logic.One}] {
		t.Error("branch SA0 into NOT must collapse with NOT output SA1")
	}
	if classOf[Fault{z, 0, logic.Zero}] != classOf[Fault{z, StemPin, logic.Zero}] {
		t.Error("branch SA0 into BUF must collapse with BUF output SA0")
	}
	// The two branch SA0 faults must NOT collapse with each other: they
	// fold into different gates.
	if classOf[Fault{y, 0, logic.Zero}] == classOf[Fault{z, 0, logic.Zero}] {
		t.Error("distinct branch faults collapsed across the stem")
	}
	if len(reps) >= 14 {
		t.Errorf("collapsing had no effect: %d reps", len(reps))
	}
}

const gateRules = `
INPUT(A)
INPUT(B)
OUTPUT(YA)
OUTPUT(YN)
OUTPUT(YO)
OUTPUT(YR)
YA = AND(A, B)
YN = NAND(A, B)
YO = OR(A, B)
YR = NOR(A, B)
`

func TestCollapseGateRules(t *testing.T) {
	c := mustParse(t, "rules", gateRules)
	_, classOf := Collapse(c, Universe(c))
	ya, _ := c.Lookup("YA")
	yn, _ := c.Lookup("YN")
	yo, _ := c.Lookup("YO")
	yr, _ := c.Lookup("YR")

	// A and B have fanout 4, so gate input faults are branch faults.
	if classOf[Fault{ya, 0, logic.Zero}] != classOf[Fault{ya, StemPin, logic.Zero}] {
		t.Error("AND: in SA0 !≡ out SA0")
	}
	if classOf[Fault{yn, 0, logic.Zero}] != classOf[Fault{yn, StemPin, logic.One}] {
		t.Error("NAND: in SA0 !≡ out SA1")
	}
	if classOf[Fault{yo, 0, logic.One}] != classOf[Fault{yo, StemPin, logic.One}] {
		t.Error("OR: in SA1 !≡ out SA1")
	}
	if classOf[Fault{yr, 0, logic.One}] != classOf[Fault{yr, StemPin, logic.Zero}] {
		t.Error("NOR: in SA1 !≡ out SA0")
	}
	// Non-controlling-value input faults must stay distinct from stems.
	if classOf[Fault{ya, 0, logic.One}] == classOf[Fault{ya, StemPin, logic.One}] {
		t.Error("AND: in SA1 wrongly collapsed with out SA1")
	}
	// Both AND input SA0 branch faults collapse together via the output.
	if classOf[Fault{ya, 0, logic.Zero}] != classOf[Fault{ya, 1, logic.Zero}] {
		t.Error("AND: the two input SA0 faults must share a class")
	}
}

func TestXorDoesNotCollapse(t *testing.T) {
	src := `
INPUT(A)
INPUT(B)
OUTPUT(Y)
OUTPUT(Z)
Y = XOR(A, B)
Z = BUF(A)
`
	c := mustParse(t, "xor", src)
	_, classOf := Collapse(c, Universe(c))
	y, _ := c.Lookup("Y")
	// XOR input branch faults must remain their own classes.
	f := Fault{y, 0, logic.Zero}
	if classOf[f] != f {
		t.Error("XOR input fault collapsed")
	}
}

func TestCollapsedUniverseAndString(t *testing.T) {
	c := mustParse(t, "branch", branchCircuit)
	reps := CollapsedUniverse(c)
	if len(reps) == 0 || len(reps) >= 14 {
		t.Errorf("CollapsedUniverse = %d", len(reps))
	}
	s, _ := c.Lookup("S")
	str := Fault{s, StemPin, logic.One}.String(c)
	if !strings.Contains(str, "S/SA1") {
		t.Errorf("String = %q", str)
	}
	y, _ := c.Lookup("Y")
	str = Fault{y, 0, logic.Zero}.String(c)
	if !strings.Contains(str, "S->Y.0/SA0") {
		t.Errorf("branch String = %q", str)
	}
}

func TestInCone(t *testing.T) {
	c := mustParse(t, "branch", branchCircuit)
	fs := Universe(c)
	y, _ := c.Lookup("Y")
	cone := c.ExtractCone(y)
	sub := InCone(fs, &cone)
	if len(sub) == 0 || len(sub) >= len(fs) {
		t.Fatalf("InCone = %d of %d", len(sub), len(fs))
	}
	for _, f := range sub {
		found := false
		for _, g := range cone.Gates {
			if f.Gate == g {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("fault %v outside cone", f.String(c))
		}
	}
	// Z's buf gate must not appear.
	z, _ := c.Lookup("Z")
	for _, f := range sub {
		if f.Gate == z {
			t.Error("Z fault inside Y cone")
		}
	}
}

func TestCollapseClassesAreConsistent(t *testing.T) {
	// Property: classOf is idempotent and representatives map to themselves.
	c := mustParse(t, "rules", gateRules)
	fs := Universe(c)
	reps, classOf := Collapse(c, fs)
	for _, r := range reps {
		if classOf[r] != r {
			t.Fatalf("representative %v maps to %v", r.String(c), classOf[r].String(c))
		}
	}
	for _, f := range fs {
		if classOf[classOf[f]] != classOf[f] {
			t.Fatalf("classOf not idempotent at %v", f.String(c))
		}
	}
	// Every class representative must be a member of the universe.
	inUniverse := make(map[Fault]bool, len(fs))
	for _, f := range fs {
		inUniverse[f] = true
	}
	for _, r := range reps {
		if !inUniverse[r] {
			t.Fatalf("representative %v not in universe", r.String(c))
		}
	}
}

// TestFaultSize pins the fault's layout: a 4-byte gate, a 4-byte pin and a
// one-byte value pad to 12 bytes, half the 24 of an int pin, and every
// fault list and map the ATPG holds pays for it per fault.
func TestFaultSize(t *testing.T) {
	if got := unsafe.Sizeof(Fault{}); got != 12 {
		t.Errorf("faults.Fault is %d bytes, want 12", got)
	}
}
