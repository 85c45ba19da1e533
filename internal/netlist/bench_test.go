package netlist

import (
	"strings"
	"testing"
)

const c17Bench = `
# c17 ISCAS'85 benchmark
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

// A small sequential circuit in bench format with a forward reference and a
// sequential feedback loop (s27-like shape).
const seqBench = `
INPUT(A)
INPUT(B)
OUTPUT(Y)
FF1 = DFF(N1)
FF2 = DFF(FF1)
N1 = XOR(A, N2)
N2 = NOT(FF2)
Y = AND(N1, B)
`

func TestParseBenchC17(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.Inputs != 5 || s.Outputs != 2 || s.Gates != 6 || s.DFFs != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.Depth != 3 {
		t.Errorf("depth = %d, want 3", s.Depth)
	}
}

func TestParseBenchSequentialWithForwardRefs(t *testing.T) {
	c, err := ParseBenchString("seq", seqBench)
	if err != nil {
		t.Fatal(err)
	}
	s := c.ComputeStats()
	if s.Inputs != 2 || s.Outputs != 1 || s.DFFs != 2 || s.Gates != 3 {
		t.Errorf("stats = %+v", s)
	}
	ff1, ok := c.Lookup("FF1")
	if !ok {
		t.Fatal("FF1 missing")
	}
	n1, _ := c.Lookup("N1")
	if c.Gate(ff1).Fanin[0] != n1 {
		t.Error("DFF fanin not patched to N1")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	orig, err := ParseBenchString("seq", seqBench)
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(orig)
	re, err := ParseBenchString("seq", text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	so, sr := orig.ComputeStats(), re.ComputeStats()
	if so.Inputs != sr.Inputs || so.Outputs != sr.Outputs || so.DFFs != sr.DFFs || so.Gates != sr.Gates || so.Depth != sr.Depth {
		t.Errorf("round trip changed structure: %+v vs %+v", so, sr)
	}
	// Every net name must survive.
	for id := 0; id < orig.NumGates(); id++ {
		n := orig.Gate(GateID(id)).Name
		if _, ok := re.Lookup(n); !ok {
			t.Errorf("net %q lost in round trip", n)
		}
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"garbage line", "INPUT(A)\nwhat is this"},
		{"unknown gate type", "INPUT(A)\nB = FROB(A)"},
		{"unknown fanin", "INPUT(A)\nB = NOT(C)\nOUTPUT(B)"},
		{"duplicate gate", "INPUT(A)\nB = NOT(A)\nB = BUF(A)"},
		{"bad INPUT syntax", "INPUT A"},
		{"empty INPUT", "INPUT( )"},
		{"empty fanin", "INPUT(A)\nB = AND(A, )"},
		{"unknown output", "INPUT(A)\nOUTPUT(Z)\nB = NOT(A)"},
		{"DFF two fanin", "INPUT(A)\nF = DFF(A, A)"},
		{"comb cycle", "INPUT(A)\nU = AND(A, V)\nV = BUF(U)"},
		{"duplicate input", "INPUT(A)\nINPUT(A)"},
		{"missing paren", "INPUT(A)\nB = NOT A"},
	}
	for _, tc := range cases {
		if _, err := ParseBenchString("bad", tc.src); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestParseBenchCaseInsensitiveAndAliases(t *testing.T) {
	src := `
input(a)
output(y)
n = inv(a)
y = buff(n)
`
	c, err := ParseBenchString("ci", src)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := c.Lookup("n")
	if c.Gate(n).Type != Not {
		t.Error("inv alias not parsed as NOT")
	}
	y, _ := c.Lookup("y")
	if c.Gate(y).Type != Buf {
		t.Error("buff alias not parsed as BUF")
	}
}

func TestParseBenchCommentsAndWhitespace(t *testing.T) {
	src := "  INPUT(A) # trailing comment\n\n#full comment\n\tOUTPUT(B)\nB = NOT( A )\n"
	c, err := ParseBenchString("ws", src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 2 {
		t.Errorf("gates = %d, want 2", c.NumGates())
	}
}

func TestWriteBenchDeterministic(t *testing.T) {
	c, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	a := BenchString(c)
	b := BenchString(c)
	if a != b {
		t.Error("BenchString not deterministic")
	}
	if !strings.Contains(a, "INPUT(G1)") || !strings.Contains(a, "G22 = NAND(G10, G16)") {
		t.Errorf("unexpected output:\n%s", a)
	}
}

// TestParseBenchKeywordPrefixedNets is the regression case for a real
// parser bug: an assignment whose left-hand net name starts with INPUT or
// OUTPUT (legal in the ISCAS'89 corpus) was misclassified as a declaration
// and rejected — which also broke the BenchString round trip for circuits
// holding such names.
func TestParseBenchKeywordPrefixedNets(t *testing.T) {
	src := `
INPUT(A)
INPUT(B)
OUTPUT(OUTPUT1)
INPUT1 = AND(A, B)
OUTPUTX = NOR(INPUT1, B)
OUTPUT1 = XNOR(OUTPUTX, INPUT1)
`
	c, err := ParseBenchString("prefix", src)
	if err != nil {
		t.Fatalf("keyword-prefixed net names rejected: %v", err)
	}
	for _, n := range []string{"INPUT1", "OUTPUTX", "OUTPUT1"} {
		if _, ok := c.Lookup(n); !ok {
			t.Errorf("net %q lost", n)
		}
	}
	if got := len(c.Inputs()); got != 2 {
		t.Errorf("inputs = %d, want 2 (assignments counted as declarations?)", got)
	}
	// The writer emits these names back; the reparse must accept them.
	re, err := ParseBenchString("prefix", BenchString(c))
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if re.NumGates() != c.NumGates() {
		t.Errorf("round trip changed gate count: %d vs %d", re.NumGates(), c.NumGates())
	}
}

// TestParseBenchDeclarationSpacing pins the flip side: keyword followed by
// whitespace before the parenthesis is still a declaration, and a net
// named exactly INPUT on the left of an assignment is a net, not a
// declaration.
func TestParseBenchDeclarationSpacing(t *testing.T) {
	src := "INPUT ( A )\nOUTPUT\t(Y)\nINPUT = NOT(A)\nY = BUF(INPUT)\n"
	c, err := ParseBenchString("spacing", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Inputs()); got != 1 {
		t.Errorf("inputs = %d, want 1", got)
	}
	id, ok := c.Lookup("INPUT")
	if !ok {
		t.Fatal("net named INPUT lost")
	}
	if c.Gate(id).Type != Not {
		t.Errorf("net INPUT parsed as %v, want NOT", c.Gate(id).Type)
	}
}
