package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/netlist"
)

// sourceRules are the rules netlist.ReadBench's problems map to.
var sourceRules = []string{"NL001", "NL002", "NL003", "NL006", "NL007", "NL008", "NL009"}

// FuzzCheckBench holds the linter to the parser it shares a reader with:
// ParseBench fails exactly when CheckBench reports a source-rule error
// (NL001–NL003, NL006–NL009), every such finding has a source line, and
// for every netlist that parses, the source and the built circuit draw the
// same (rule, subject, message) findings from the circuit rules.
func FuzzCheckBench(f *testing.F) {
	// The inline FuzzParseBench seeds, then its testdata netlists and
	// defect fixtures.
	for _, src := range []string{
		"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
		"# only a comment\n",
		"INPUT(a)\nb = DFF(b)\nOUTPUT(b)",
		"INPUT(a)\nU = AND(a, V)\nV = BUF(U)",
		"x = CONST1()\nOUTPUT(x)",
		"INPUT(a)\nOUTPUT(OUTPUT1)\nINPUT1 = AND(a, a)\nOUTPUT1 = NOT(INPUT1)\n",
		"INPUT ( a )\nOUTPUT\t(y)\ny = NOT( a )  # trailing comment\n",
		"\r\nINPUT(a)\r\nOUTPUT(y)\r\ny = BUF(a)\r\n",
		"#comment only\n   \n\t\nINPUT(a)\nOUTPUT(a)",
		"input(a)\noutput(y)\ny = inv(a)\nINPUT = buff(y) # net named INPUT\n",
		"INPUT(a)\nOUTPUT(y)\nd1 = AND(a, a)\nd2 = AND(a, a)\nc0 = XOR(a, a)\ndead = NOR(d2, c0)\ny = OR(d1, c0)\n",
		"INPUT(a)\nOUTPUT(z)\nz = AND(b, y)\ny = NOT(c)\nc = OR(a, b)\nb = BUF(a)\n",
		"INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = XOR(q, b)\nq = DFF(x)\nb = NOT(a)\n",
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, u)\nu = NOT(m)\nm = DFF(y)\nv = AND(u, u, y)\n",
		"INPUT(a)\nOUTPUT(y)\ny = AND(a, w)\nw = NOT(k)\nk = BUF(y)\nz = NOT(nowhere)\n",
		"INPUT(a)\ny = AND(a)\nb = NOT(a)\nx = AND(a, b, c)\nc = OR(a)\n",
		"INPUT(a)\nf = DFF(g)\ng = DFF(h)\n",
		"OUTPUT(a)\nOUTPUT(a)\nINPUT(a)\n",
	} {
		f.Add(src)
	}
	for _, glob := range []string{"*.bench", "defects/*.bench"} {
		paths, err := filepath.Glob(filepath.Join("..", "netlist", "testdata", glob))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no netlist testdata %s: %v", glob, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(data))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		r := CheckBench("f.bench", src, DefaultOptions())
		source := false
		for _, d := range r.Diags {
			if slices.Contains(sourceRules, d.Rule) {
				source = true
				if d.Pos.Line == 0 {
					t.Fatalf("%s finding without a line: %v", d.Rule, d)
				}
			}
		}
		c, err := netlist.ParseBenchString("f.bench", src)
		if (err != nil) != source {
			t.Fatalf("parser error %v, but source-rule errors %v: %v", err, source, rulesOf(r))
		}
		if err != nil {
			return
		}
		got, want := circuitFindings(r), circuitFindings(checkCircuit(c.Name, c, make([]int, c.NumGates()), DefaultOptions()))
		if !slices.Equal(got, want) {
			t.Fatalf("source findings %q, circuit findings %q", got, want)
		}
	})
}

// circuitFindings returns the sorted "rule subject message" triples of the
// circuit rules in r.
func circuitFindings(r *Report) []string {
	var out []string
	for _, d := range r.Diags {
		if !slices.Contains(sourceRules, d.Rule) {
			out = append(out, strings.Join([]string{d.Rule, d.Subject, d.Msg}, " "))
		}
	}
	slices.Sort(out)
	return out
}

// TestCheckBenchDuplicateOutput: a net declared OUTPUT twice is an error
// at the second declaration, as it is to the parser.
func TestCheckBenchDuplicateOutput(t *testing.T) {
	r := CheckBench("f", "OUTPUT(a)\nOUTPUT(a)\nINPUT(a)\n", DefaultOptions())
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "f:2: error: NL006: duplicate OUTPUT declaration of net \"a\" (first declared at line 1)\n" +
		"1 error(s), 0 warning(s), 0 info(s)\n"
	if b.String() != want {
		t.Errorf("lint:\n%s\nwant:\n%s", b.String(), want)
	}
}
