package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
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

func mustParse(t *testing.T, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomPatterns(r *rand.Rand, width, n int) []logic.Cube {
	ps := make([]logic.Cube, n)
	for i := range ps {
		c := make(logic.Cube, width)
		for j := range c {
			c[j] = logic.FromBool(r.Intn(2) == 1)
		}
		ps[i] = c
	}
	return ps
}

// randomCircuit builds a random multi-level circuit for cross-checking.
func randomCircuit(t *testing.T, r *rand.Rand, nIn, nGates, nOut, nDFF int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("rand")
	var pool []netlist.GateID
	for i := 0; i < nIn; i++ {
		pool = append(pool, c.MustAddGate(gname("in", i), netlist.Input))
	}
	types := []netlist.GateType{netlist.And, netlist.Nand, netlist.Or, netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
	for i := 0; i < nGates; i++ {
		tt := types[r.Intn(len(types))]
		nf := 1
		if tt.MinFanin() >= 2 {
			nf = 2 + r.Intn(2)
		}
		fanin := make([]netlist.GateID, nf)
		for j := range fanin {
			fanin[j] = pool[r.Intn(len(pool))]
		}
		pool = append(pool, c.MustAddGate(gname("g", i), tt, fanin...))
	}
	for i := 0; i < nDFF; i++ {
		src := pool[len(pool)-1-r.Intn(nGates/2+1)]
		pool = append(pool, c.MustAddGate(gname("ff", i), netlist.DFF, src))
	}
	for i := 0; i < nOut; i++ {
		if err := c.MarkOutput(pool[len(pool)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func gname(p string, i int) string {
	return p + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

func TestEngineMatchesSerialOracle(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	circuits := []*netlist.Circuit{
		mustParse(t, "c17", c17Bench),
		mustParse(t, "seq", seqBench),
		randomCircuit(t, r, 6, 30, 3, 2),
		randomCircuit(t, r, 8, 60, 4, 5),
	}
	for _, c := range circuits {
		flist := faults.Universe(c)
		width := len(c.PseudoInputs())
		patterns := randomPatterns(r, width, 40)

		// Reference: per fault, scan patterns serially for first detection.
		wantBy := make([]int, len(flist))
		for i, f := range flist {
			wantBy[i] = Undetected
			for k, p := range patterns {
				if SerialDetects(c, p, f) {
					wantBy[i] = k
					break
				}
			}
		}

		res := Simulate(c, patterns, flist)
		for i := range flist {
			if res.DetectedBy[i] != wantBy[i] {
				t.Errorf("%s: fault %s: engine first-detect %d, serial %d",
					c.Name, flist[i].String(c), res.DetectedBy[i], wantBy[i])
			}
		}
	}
}

func TestEngineIncrementalEquivalentToBulk(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := randomCircuit(t, r, 6, 40, 3, 3)
	flist := faults.CollapsedUniverse(c)
	patterns := randomPatterns(r, len(c.PseudoInputs()), 150)

	bulk := Simulate(c, patterns, flist)

	e := NewEngine(c, flist)
	total := 0
	for off := 0; off < len(patterns); off += 7 { // deliberately odd chunks
		end := off + 7
		if end > len(patterns) {
			end = len(patterns)
		}
		total += e.Apply(patterns[off:end])
	}
	if e.NumPatterns() != len(patterns) {
		t.Errorf("NumPatterns = %d", e.NumPatterns())
	}
	if total != bulk.NumDetected || e.DetectedCount() != bulk.NumDetected {
		t.Errorf("incremental detected %d, bulk %d", total, bulk.NumDetected)
	}
	inc := e.Result()
	for i := range flist {
		if inc.DetectedBy[i] != bulk.DetectedBy[i] {
			t.Errorf("fault %s: incremental %d, bulk %d",
				flist[i].String(c), inc.DetectedBy[i], bulk.DetectedBy[i])
		}
	}
}

func TestRedundantFaultStaysUndetected(t *testing.T) {
	// y = OR(a, AND(a,b)) == a, so the AND output SA0 is redundant.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
n = AND(a, b)
y = OR(a, n)
`
	c := mustParse(t, "red", src)
	n, _ := c.Lookup("n")
	f := faults.Fault{Gate: n, Pin: faults.StemPin, Stuck: logic.Zero}
	// Exhaustive patterns.
	var patterns []logic.Cube
	for bits := 0; bits < 4; bits++ {
		patterns = append(patterns, logic.Cube{logic.FromBit(bits & 1), logic.FromBit(bits >> 1)})
	}
	res := Simulate(c, patterns, []faults.Fault{f})
	if res.DetectedBy[0] != Undetected {
		t.Errorf("redundant fault detected by pattern %d", res.DetectedBy[0])
	}
	if res.Coverage() != 0 {
		t.Errorf("coverage = %v, want 0", res.Coverage())
	}
	if len(res.UndetectedFaults()) != 1 {
		t.Error("UndetectedFaults wrong")
	}
}

func TestCoverageAndRemaining(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	flist := faults.CollapsedUniverse(c)
	var patterns []logic.Cube
	for bits := 0; bits < 32; bits++ {
		cube := make(logic.Cube, 5)
		for i := 0; i < 5; i++ {
			cube[i] = logic.FromBit(bits >> uint(i) & 1)
		}
		patterns = append(patterns, cube)
	}
	e := NewEngine(c, flist)
	e.Apply(patterns)
	// c17 is fully testable: exhaustive patterns must reach 100% coverage.
	if e.Coverage() != 1 {
		t.Errorf("c17 exhaustive coverage = %v, remaining %d", e.Coverage(), len(e.Remaining()))
		for _, f := range e.Remaining() {
			t.Logf("undetected: %s", f.String(c))
		}
	}
	if len(e.Remaining()) != 0 {
		t.Error("Remaining nonempty at full coverage")
	}
}

func TestDFFPinBranchFault(t *testing.T) {
	// Force a net with fanout>1 feeding a DFF so a DFF pin fault exists.
	src := `
INPUT(a)
OUTPUT(y)
n = NOT(a)
f = DFF(n)
y = AND(n, f)
`
	c := mustParse(t, "dffpin", src)
	ffID, _ := c.Lookup("f")
	fault := faults.Fault{Gate: ffID, Pin: 0, Stuck: logic.Zero}
	// Pattern with a=0 makes n=1 != stuck 0 -> detected at the capture.
	p := logic.Cube{logic.Zero, logic.Zero} // a, f(state)
	res := Simulate(c, []logic.Cube{p}, []faults.Fault{fault})
	if res.DetectedBy[0] != 0 {
		t.Errorf("DFF pin fault not detected: %d", res.DetectedBy[0])
	}
	if !SerialDetects(c, p, fault) {
		t.Error("serial oracle disagrees on DFF pin fault")
	}
	// a=1 -> n=0 == stuck -> not detected.
	p2 := logic.Cube{logic.One, logic.Zero}
	if SerialDetects(c, p2, fault) {
		t.Error("DFF pin fault detected when good == stuck")
	}
}

func TestEmptyFaultListCoverage(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	res := Simulate(c, randomPatterns(rand.New(rand.NewSource(1)), 5, 3), nil)
	if res.Coverage() != 1 {
		t.Error("empty fault list must have coverage 1")
	}
}

func TestXBitsTreatedAsZero(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	flist := faults.CollapsedUniverse(c)
	withX, _ := logic.ParseCube("1X0X1")
	zeros, _ := logic.ParseCube("10001")
	a := Simulate(c, []logic.Cube{withX}, flist)
	b := Simulate(c, []logic.Cube{zeros}, flist)
	if a.NumDetected != b.NumDetected {
		t.Errorf("X-as-zero mismatch: %d vs %d", a.NumDetected, b.NumDetected)
	}
}
