package netlist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedFromTestdata adds every testdata/*.bench netlist to the fuzz corpus,
// so the fuzzer mutates from realistic well-formed circuits, not just the
// inline snippets.
func seedFromTestdata(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.bench"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no testdata/*.bench seed netlists found")
	}
	// The seeded defect fixtures are corpus material too: the fuzzer then
	// mutates from inputs that exercise every rejection path of the parser.
	defects, err := filepath.Glob(filepath.Join("testdata", "defects", "*.bench"))
	if err != nil {
		f.Fatal(err)
	}
	paths = append(paths, defects...)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
}

// FuzzParseBench exercises the .bench parser with arbitrary input. The
// invariants: no panic; the parser agrees with the sorted-rounds oracle
// (same serialization, or the oracle's error text on the first line); on
// success the circuit is finalized and its bench serialization reparses to
// an equal-shape circuit (idempotent round trip).
func FuzzParseBench(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	f.Add(c17Bench)
	f.Add(seqBench)
	f.Add("# only a comment\n")
	f.Add("INPUT(a)\nb = DFF(b)\nOUTPUT(b)")
	f.Add("INPUT(a)\nU = AND(a, V)\nV = BUF(U)")
	f.Add("x = CONST1()\nOUTPUT(x)")
	// Whitespace/comment edges and keyword-prefixed net names — the
	// INPUT1-as-LHS shape is the regression seed for a real parser bug.
	f.Add("INPUT(a)\nOUTPUT(OUTPUT1)\nINPUT1 = AND(a, a)\nOUTPUT1 = NOT(INPUT1)\n")
	f.Add("INPUT ( a )\nOUTPUT\t(y)\ny = NOT( a )  # trailing comment\n")
	f.Add("\r\nINPUT(a)\r\nOUTPUT(y)\r\ny = BUF(a)\r\n")
	f.Add("#comment only\n   \n\t\nINPUT(a)\nOUTPUT(a)")
	f.Add("input(a)\noutput(y)\ny = inv(a)\nINPUT = buff(y) # net named INPUT\n")
	// Levelizer stressors, built programmatically so the corpus scales past
	// what a readable literal allows: a 300-deep chain, a stem with fanout
	// 120 feeding one wide gate, and a block of redundant/dead gates.
	// (Smaller on-disk cousins live in testdata/{deepchain,widefan,
	// redundant}.bench and are seeded below.)
	var deep strings.Builder
	deep.WriteString("INPUT(a)\nOUTPUT(n300)\n")
	for i := 1; i <= 300; i++ {
		fmt.Fprintf(&deep, "n%d = NOT(n%d)\n", i, i-1)
	}
	f.Add(strings.Replace(deep.String(), "NOT(n0)", "NOT(a)", 1))
	var wide strings.Builder
	wide.WriteString("INPUT(a)\nOUTPUT(y)\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&wide, "w%d = NOT(a)\n", i)
	}
	wide.WriteString("y = OR(w0")
	for i := 1; i < 120; i++ {
		fmt.Fprintf(&wide, ", w%d", i)
	}
	wide.WriteString(")\n")
	f.Add(wide.String())
	f.Add("INPUT(a)\nOUTPUT(y)\nd1 = AND(a, a)\nd2 = AND(a, a)\nc0 = XOR(a, a)\ndead = NOR(d2, c0)\ny = OR(d1, c0)\n")
	// Gate-order and error-order edges for the oracle check: names that
	// sort against signal flow, gates shadowing an input, DFFs closing
	// loops, and each class of build error.
	f.Add(reverseChainBench(40))
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(b, y)\ny = NOT(c)\nc = OR(a, b)\nb = BUF(a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = XOR(q, b)\nq = DFF(x)\nb = NOT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = AND(a, u)\nu = NOT(m)\nm = DFF(y)\nv = AND(u, u, y)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = AND(a, w)\nw = NOT(k)\nk = BUF(y)\nz = NOT(nowhere)\n")
	f.Add("INPUT(a)\ny = AND(a)\nb = NOT(a)\nx = AND(a, b, c)\nc = OR(a)\n")
	f.Add("INPUT(a)\nf = DFF(g)\ng = DFF(h)\n")
	// Sort-key ties: names sharing their first eight bytes or more, and
	// names told apart only by NUL bytes, which tie with the key's padding.
	f.Add(strings.ReplaceAll(reverseChainBench(40), "n0", "shared_prefix_n0"))
	f.Add("INPUT(a)\nOUTPUT(y)\ny = AND(abcdefgh0, abcdefgh)\nabcdefgh0 = NOT(abcdefgh)\nabcdefgh = BUF(abcdefg)\nabcdefg = NOT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = AND(p\x00, p)\np\x00 = NOT(p\x00\x00)\np\x00\x00 = NOT(p)\np = BUF(a)\n")
	f.Add("INPUT(a)\nOUTPUT(y)\ny = OR(abcdefgh\x00, abcdefgh\x00\x00)\nabcdefgh\x00\x00 = NOT(abcdefgh\x00)\nabcdefgh\x00 = NOT(abcdefgh)\nabcdefgh = BUF(a)\n")
	seedFromTestdata(f)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseBenchString("fuzz", src)
		oc, oerr := parseBenchRounds("fuzz", src)
		first, _, _ := strings.Cut(fmt.Sprint(err), "\n")
		if first != fmt.Sprint(oerr) || (err == nil && BenchString(c) != BenchString(oc)) {
			t.Fatalf("parser and sorted-rounds oracle disagree: error %v, oracle %v", err, oerr)
		}
		if err != nil {
			return
		}
		if !c.Finalized() {
			t.Fatal("parsed circuit not finalized")
		}
		text := BenchString(c)
		re, err := ParseBenchString("fuzz", text)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, text)
		}
		a, b := c.ComputeStats(), re.ComputeStats()
		if a.Inputs != b.Inputs || a.Outputs != b.Outputs || a.DFFs != b.DFFs || a.Gates != b.Gates || a.Depth != b.Depth {
			t.Fatalf("round trip changed shape: %+v vs %+v", a, b)
		}
		// Second serialization must be byte-identical (canonical form).
		if BenchString(re) != text {
			t.Fatal("serialization not canonical")
		}
	})
}

// TestTestdataNetlists keeps the fuzz seed corpus honest under plain
// `go test`: every testdata netlist must parse, finalize and round-trip.
func TestTestdataNetlists(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata/*.bench netlists")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ParseBenchString(p, string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		re, err := ParseBenchString(p, BenchString(c))
		if err != nil {
			t.Fatalf("%s: round trip: %v", p, err)
		}
		a, b := c.ComputeStats(), re.ComputeStats()
		if a.Inputs != b.Inputs || a.Outputs != b.Outputs || a.DFFs != b.DFFs || a.Gates != b.Gates || a.Depth != b.Depth {
			t.Fatalf("%s: round trip changed shape: %+v vs %+v", p, a, b)
		}
	}
}

// FuzzBenchNames stresses parsing with odd identifier content.
func FuzzBenchNames(f *testing.F) {
	f.Add("weird-name.1", "other$name")
	f.Fuzz(func(t *testing.T, n1, n2 string) {
		// A name is trimmed like any other token, so one with leading or
		// trailing white space (say "\r") is not a name the format can hold.
		if strings.ContainsAny(n1+n2, "(),= \t\n#") || n1 == "" || n2 == "" || n1 == n2 ||
			strings.TrimSpace(n1) != n1 || strings.TrimSpace(n2) != n2 {
			return
		}
		src := "INPUT(" + n1 + ")\nOUTPUT(" + n2 + ")\n" + n2 + " = NOT(" + n1 + ")\n"
		c, err := ParseBenchString("fuzz", src)
		if err != nil {
			t.Fatalf("valid names rejected: %v", err)
		}
		if _, ok := c.Lookup(n1); !ok {
			t.Fatalf("name %q lost", n1)
		}
	})
}
