package netlist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDefectFixturesRejected pins the parser's verdict on every seeded
// defect fixture that is unbuildable (the warning-level fixtures — dead or
// unobservable logic — still parse; the DRC linter owns those). The wanted
// substring ties each fixture to the failure class it seeds.
func TestDefectFixturesRejected(t *testing.T) {
	cases := map[string]string{
		"cycle.bench":       "combinational cycle",
		"undriven.bench":    "undriven",
		"multidriven.bench": "multiply driven",
		"dupdef.bench":      "duplicate definition",
		"arity.bench":       "fanin",
		"badtype.bench":     "", // first error wins: unknown type or syntax
	}
	for file, want := range cases {
		data, err := os.ReadFile(filepath.Join("testdata", "defects", file))
		if err != nil {
			t.Fatal(err)
		}
		_, perr := ParseBenchString(file, string(data))
		if perr == nil {
			t.Errorf("%s: parsed without error", file)
			continue
		}
		if want != "" && !strings.Contains(perr.Error(), want) {
			t.Errorf("%s: error %q does not mention %q", file, perr, want)
		}
	}
	for _, file := range []string{"deadlogic.bench", "unobservable.bench"} {
		data, err := os.ReadFile(filepath.Join("testdata", "defects", file))
		if err != nil {
			t.Fatal(err)
		}
		if _, perr := ParseBenchString(file, string(data)); perr != nil {
			t.Errorf("%s: structurally legal fixture rejected: %v", file, perr)
		}
	}
}

// TestParseBenchUndrivenNets checks that a reference to a never-defined net
// is reported as exactly that — with the missing net names — instead of the
// old conflated "unresolved or cyclic" message.
func TestParseBenchUndrivenNets(t *testing.T) {
	_, err := ParseBenchString("u", "INPUT(A)\nB = AND(A, C)\nD = OR(B, E)\nOUTPUT(D)\n")
	if err == nil {
		t.Fatal("no error for undriven nets")
	}
	msg := err.Error()
	if !strings.Contains(msg, "undriven") {
		t.Errorf("error does not name the defect: %v", err)
	}
	for _, net := range []string{"C", "E"} {
		if !strings.Contains(msg, net) {
			t.Errorf("error does not name missing net %s: %v", err, msg)
		}
	}
	if strings.Contains(msg, "cycle") {
		t.Errorf("undriven nets misreported as a cycle: %v", err)
	}
}

// TestParseBenchCyclePath checks that a genuine combinational cycle is
// reported with a concrete gate path.
func TestParseBenchCyclePath(t *testing.T) {
	_, err := ParseBenchString("c", "INPUT(A)\nU = AND(A, W)\nV = NOT(U)\nW = BUF(V)\nOUTPUT(V)\n")
	if err == nil {
		t.Fatal("no error for combinational cycle")
	}
	msg := err.Error()
	if !strings.Contains(msg, "combinational cycle") {
		t.Errorf("error does not name the cycle: %v", err)
	}
	// The path must walk the actual loop U -> W -> V (in some rotation),
	// rendered with " -> " separators and a closing repeat of the opener.
	if !strings.Contains(msg, " -> ") {
		t.Errorf("cycle path missing: %v", err)
	}
	for _, net := range []string{"U", "V", "W"} {
		if !strings.Contains(msg, net) {
			t.Errorf("cycle path does not include %s: %v", net, msg)
		}
	}
	parts := strings.Split(msg[strings.Index(msg, "cycle: ")+len("cycle: "):], " -> ")
	if len(parts) < 3 || parts[0] != parts[len(parts)-1] {
		t.Errorf("cycle path %q does not close on itself", parts)
	}
}

// TestParseBenchSelfLoop covers the one-gate cycle.
func TestParseBenchSelfLoop(t *testing.T) {
	_, err := ParseBenchString("s", "INPUT(A)\nU = AND(A, U)\nOUTPUT(U)\n")
	if err == nil {
		t.Fatal("no error for self-loop")
	}
	if !strings.Contains(err.Error(), "combinational cycle") {
		t.Errorf("self-loop not reported as a cycle: %v", err)
	}
}

// TestParseBenchMultiplyDriven checks that assigning a net that is also
// declared INPUT fails rather than silently shadowing the input.
func TestParseBenchMultiplyDriven(t *testing.T) {
	_, err := ParseBenchString("m", "INPUT(A)\nINPUT(B)\nA = AND(B, B)\nOUTPUT(A)\n")
	if err == nil {
		t.Fatal("no error for multiply-driven net")
	}
}

// TestScanBenchStmtsLenient checks the scanner keeps going past syntax
// errors and unknown gate types, reporting all of them with positions.
func TestScanBenchStmtsLenient(t *testing.T) {
	src := "INPUT(A)\nwhat is this\nB = FROB(A)\nC = AND(A, )\nD = NOT(A)\nOUTPUT(D)\n"
	stmts, serrs, err := scanStmts("lenient", src)
	if err != nil {
		t.Fatal(err)
	}
	// Syntax errors: line 2 (garbage), line 4 (empty fanin). The unknown
	// type on line 3 is a gate with an invalid type, not a syntax error:
	// the build pass reports it.
	if len(serrs) != 2 {
		t.Fatalf("got %d syntax errors, want 2: %v", len(serrs), serrs)
	}
	if serrs[0].Line != 2 || serrs[1].Line != 4 {
		t.Errorf("syntax error lines %d,%d, want 2,4", serrs[0].Line, serrs[1].Line)
	}
	var unknown, known int
	for _, st := range stmts {
		if st.kind == benchGate {
			if st.typ.Valid() {
				known++
			} else {
				unknown++
				if st.typeName != "FROB" || st.line != 3 {
					t.Errorf("unknown-type stmt = %+v", st)
				}
			}
		}
	}
	if unknown != 1 || known != 1 {
		t.Errorf("gate stmts known=%d unknown=%d, want 1/1", known, unknown)
	}
}

// TestScanBenchStmtsAgreesWithParser: every clean source must scan without
// syntax errors and with the same statement counts the parser realizes as
// gates, which guards the builder's bookkeeping.
func TestScanBenchStmtsAgreesWithParser(t *testing.T) {
	for _, src := range []string{
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		"input ( A )\nINPUT(B)\noutput(Y)\nOUTPUT1 = and( A , B )\nINPUT1=inv(OUTPUT1)\nFF = dff( INPUT1 )\nY = xnor(FF, OUTPUT1)\n",
	} {
		stmts, serrs, err := scanStmts("x", src)
		if err != nil || len(serrs) != 0 {
			t.Fatalf("scan failed: %v %v", err, serrs)
		}
		c, err := ParseBenchString("x", src)
		if err != nil {
			t.Fatalf("parse failed: %v", err)
		}
		var gates, ins int
		for _, st := range stmts {
			switch st.kind {
			case benchGate:
				gates++
			case benchInput:
				ins++
			}
		}
		if got := c.NumGates(); got != gates+ins {
			t.Errorf("parser built %d gates, scanner saw %d", got, gates+ins)
		}
	}
}
