package atpg

import (
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
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

func randomCircuit(t *testing.T, seed int64, nIn, nGates, nOut, nDFF int) *netlist.Circuit {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
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
		pool = append(pool, c.MustAddGate(gname("ff", i), netlist.DFF, pool[len(pool)-1-r.Intn(nGates/2+1)]))
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

func TestGenerateC17FullCoverage(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	res := Generate(c, DefaultOptions())
	if res.Coverage != 1 {
		t.Fatalf("c17 coverage = %v; aborted %d, redundant %d", res.Coverage, res.NumAborted, res.NumRedundant)
	}
	if res.NumRedundant != 0 || res.NumAborted != 0 {
		t.Errorf("c17 must have no redundant/aborted faults: %d/%d", res.NumRedundant, res.NumAborted)
	}
	if res.PatternCount() == 0 || res.PatternCount() > 16 {
		t.Errorf("c17 pattern count = %d, expected a small set", res.PatternCount())
	}
	// All final patterns fully specified.
	for _, p := range res.Patterns {
		if p.Specified() != len(p) {
			t.Error("final pattern not fully specified")
		}
	}
}

func TestGenerateWithoutRandomOrCompact(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	opts := Options{BacktrackLimit: 50, RandomPatterns: 0, Compact: false, Seed: 3}
	res := Generate(c, opts)
	if res.Coverage != 1 {
		t.Fatalf("coverage = %v", res.Coverage)
	}
	// Without the random phase every detected outcome stems from PODEM.
	if len(res.Outcomes) == 0 {
		t.Error("no PODEM outcomes recorded")
	}
}

func TestCompactionReducesOrKeepsPatternCount(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := randomCircuit(t, seed, 8, 60, 4, 4)
		plain := Generate(c, Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: false, Seed: 1})
		comp := Generate(c, Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1})
		if comp.PatternCount() > plain.PatternCount() {
			t.Errorf("seed %d: compaction grew patterns %d -> %d", seed, plain.PatternCount(), comp.PatternCount())
		}
		if comp.Coverage < plain.Coverage-1e-9 {
			t.Errorf("seed %d: compaction lost coverage %v -> %v", seed, plain.Coverage, comp.Coverage)
		}
	}
}

func TestRedundantFaultProven(t *testing.T) {
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
	res := GenerateForFaults(c, []faults.Fault{f}, Options{BacktrackLimit: 1000, Compact: true, Seed: 1})
	if res.NumRedundant != 1 {
		t.Fatalf("redundant fault not proven: %+v", res)
	}
	if res.EffectiveCoverage != 1 {
		t.Errorf("effective coverage = %v, want 1", res.EffectiveCoverage)
	}
	if res.Coverage != 0 {
		t.Errorf("raw coverage = %v, want 0", res.Coverage)
	}
}

func TestGenerateRandomCircuitsHighCoverage(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		c := randomCircuit(t, seed, 10, 80, 5, 6)
		res := Generate(c, DefaultOptions())
		// Random reconvergent circuits contain genuine redundancy, so raw
		// coverage below 1 is expected; what must hold is that every
		// undetected fault carries a verdict (redundant or aborted) and
		// that aborts stay rare.
		undetected := res.NumFaults - res.NumDetected
		if undetected > res.NumRedundant+res.NumAborted {
			t.Errorf("seed %d: %d undetected faults but only %d redundant + %d aborted",
				seed, undetected, res.NumRedundant, res.NumAborted)
		}
		if float64(res.NumAborted) > 0.05*float64(res.NumFaults) {
			t.Errorf("seed %d: abort rate too high: %d of %d", seed, res.NumAborted, res.NumFaults)
		}
		// The Result's coverage figure must match an independent fault sim.
		check := faultsim.Simulate(c, res.Patterns, faults.CollapsedUniverse(c))
		if check.Coverage() != res.Coverage {
			t.Errorf("seed %d: reported coverage %v != measured %v", seed, res.Coverage, check.Coverage())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := randomCircuit(t, 77, 8, 50, 4, 3)
	a := Generate(c, DefaultOptions())
	b := Generate(c, DefaultOptions())
	if a.PatternCount() != b.PatternCount() {
		t.Fatalf("pattern counts differ: %d vs %d", a.PatternCount(), b.PatternCount())
	}
	for i := range a.Patterns {
		if a.Patterns[i].String() != b.Patterns[i].String() {
			t.Fatalf("pattern %d differs", i)
		}
	}
}

func TestTinyBacktrackLimitAborts(t *testing.T) {
	// With an absurd limit of 0 (coerced to default) nothing breaks; with 1,
	// hard faults abort but the run still completes and accounts correctly.
	c := randomCircuit(t, 5, 10, 120, 5, 5)
	res := Generate(c, Options{BacktrackLimit: 1, RandomPatterns: 0, Compact: false, Seed: 1})
	if res.NumDetected+res.NumAborted+res.NumRedundant < res.NumFaults {
		// Some faults may be detected fortuitously; the sum can exceed
		// NumFaults but never undershoot.
		t.Errorf("accounting hole: det %d + ab %d + red %d < %d faults",
			res.NumDetected, res.NumAborted, res.NumRedundant, res.NumFaults)
	}
}

func TestPerConeGenerationOnSubcircuit(t *testing.T) {
	// Per-cone ATPG in the paper's sense isolates the cone as its own
	// core: stimuli only on the cone support, observation only at the
	// apex. That is exactly SubcircuitFromCone.
	c := mustParse(t, "c17", c17Bench)
	g22, _ := c.Lookup("G22")
	cone := c.ExtractCone(g22)
	sub, backMap, err := netlist.SubcircuitFromCone(c, &cone)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Inputs()) != cone.Width() || len(sub.Outputs()) != 1 {
		t.Fatalf("subcircuit shape: %d in, %d out", len(sub.Inputs()), len(sub.Outputs()))
	}
	// Every subcircuit gate maps back to a cone gate.
	for newID := netlist.GateID(0); int(newID) < sub.NumGates(); newID++ {
		old, ok := backMap[newID]
		if !ok {
			t.Fatalf("gate %s has no back-mapping", sub.Gate(newID).Name)
		}
		if c.Gate(old).Name != sub.Gate(newID).Name {
			t.Fatalf("back-mapping name mismatch: %s vs %s", c.Gate(old).Name, sub.Gate(newID).Name)
		}
	}
	res := Generate(sub, Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1})
	if res.Coverage != 1 {
		t.Fatalf("cone coverage = %v (aborted %d, redundant %d)", res.Coverage, res.NumAborted, res.NumRedundant)
	}
	// Cube width equals the cone support width.
	for _, cube := range res.Cubes {
		if len(cube) != cone.Width() {
			t.Errorf("cube width %d != support width %d", len(cube), cone.Width())
		}
	}
}

func TestStatusString(t *testing.T) {
	if Detected.String() != "detected" || Redundant.String() != "redundant" || Aborted.String() != "aborted" {
		t.Error("status names wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status empty")
	}
}

func TestGeneratedCubesDetectTheirTargets(t *testing.T) {
	// Property: for every Detected outcome the recorded fault really is
	// detected by the final pattern set.
	c := randomCircuit(t, 21, 9, 70, 4, 4)
	res := Generate(c, DefaultOptions())
	for _, o := range res.Outcomes {
		if o.Status != Detected {
			continue
		}
		found := false
		for _, p := range res.Patterns {
			if faultsim.SerialDetects(c, p, o.Fault) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fault %s marked detected but no final pattern detects it", o.Fault.String(c))
		}
	}
}

func TestXorHeavyCircuit(t *testing.T) {
	// XOR trees exercise the parity backtrace path.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
x1 = XOR(a, b)
x2 = XOR(c, d)
x3 = XNOR(x1, x2)
y = XOR(x3, a)
`
	c := mustParse(t, "xor", src)
	res := Generate(c, Options{BacktrackLimit: 200, RandomPatterns: 0, Compact: true, Seed: 2})
	// The stem faults on input a are genuinely redundant: y = x3 XOR a and
	// flipping a flips x3 as well, so the effect self-masks. PODEM must
	// prove exactly those two redundant and detect everything else.
	if res.NumRedundant != 2 {
		t.Fatalf("redundant = %d, want 2 (a/SA0 and a/SA1)", res.NumRedundant)
	}
	if res.NumAborted != 0 {
		t.Fatalf("aborted = %d, want 0", res.NumAborted)
	}
	if res.EffectiveCoverage != 1 {
		t.Fatalf("effective coverage = %v (raw %v)", res.EffectiveCoverage, res.Coverage)
	}
}

func TestDynamicCompactionReducesCubes(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := randomCircuit(t, seed+40, 10, 80, 5, 5)
		static := Generate(c, Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1})
		dynamic := Generate(c, Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true,
			DynamicCompact: true, DynamicTargets: 24, Seed: 1})
		if dynamic.Coverage < static.Coverage-1e-9 {
			t.Errorf("seed %d: dynamic compaction lost coverage %v -> %v", seed, static.Coverage, dynamic.Coverage)
		}
		// Dynamic compaction generates fewer (or equal) raw cubes: each
		// cube carries several targets.
		if len(dynamic.Cubes) > len(static.Cubes) {
			t.Errorf("seed %d: dynamic cubes %d > static %d", seed, len(dynamic.Cubes), len(static.Cubes))
		}
	}
}

func TestDynamicCompactionOnC17(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	res := Generate(c, Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true,
		DynamicCompact: true, Seed: 1})
	if res.Coverage != 1 {
		t.Fatalf("coverage = %v", res.Coverage)
	}
	// Every Detected outcome must really be detected by the final set.
	for _, o := range res.Outcomes {
		if o.Status != Detected {
			continue
		}
		found := false
		for _, p := range res.Patterns {
			if faultsim.SerialDetects(c, p, o.Fault) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fault %s marked detected but undetected by final set", o.Fault.String(c))
		}
	}
}

func TestRunWithBaseRespectsBase(t *testing.T) {
	// Constrain the search so the needed assignment conflicts with the
	// base: the secondary attempt must fail as Aborted, never Redundant.
	c := mustParse(t, "c17", c17Bench)
	pd := newPodem(c, 1000, 0, nil)
	g1, _ := c.Lookup("G1")
	// G1/SA0 needs G1=1; base pins G1=0.
	f := faults.Fault{Gate: g1, Pin: faults.StemPin, Stuck: logic.Zero}
	base := logic.NewCube(5)
	base[0] = logic.Zero // pseudo-input order: G1 first
	cube, status := pd.runWithBase(f, base)
	if status != Aborted {
		t.Fatalf("status = %v (cube %v), want aborted under conflicting base", status, cube)
	}
	// Unconstrained, the same fault is detectable.
	if _, status := pd.run(f); status != Detected {
		t.Fatalf("unconstrained run = %v, want detected", status)
	}
}

func TestResponsesMatchSimulator(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	res := Generate(c, DefaultOptions())
	responses := res.Responses(c)
	if len(responses) != len(res.Patterns) {
		t.Fatalf("responses = %d, patterns = %d", len(responses), len(res.Patterns))
	}
	td := res.BuildTesterData(c)
	if td.TotalBits != td.StimulusBits+td.ResponseBits {
		t.Error("tester data totals inconsistent")
	}
	// Naive full-frame accounting: width x T each way.
	if td.StimulusBits != int64(len(c.PseudoInputs())*len(res.Patterns)) {
		t.Errorf("stimulus bits = %d", td.StimulusBits)
	}
	if td.ResponseBits != int64(len(c.PseudoOutputs())*len(res.Patterns)) {
		t.Errorf("response bits = %d", td.ResponseBits)
	}
	// Cross-check every response against the serial simulator.
	s := sim.New(c)
	for k := range res.Patterns {
		want := s.Simulate(res.Patterns[k])
		if responses[k].String() != want.String() {
			t.Fatalf("pattern %d: response %v, want %v", k, responses[k], want)
		}
	}

	// Across word boundaries (1, 63, 64, 65 and 130 patterns) on a
	// stand-in, with X bits, which both simulators load as 0: the
	// compiled Program must match the reference bit-parallel simulator.
	c = standin(t, "s713")
	r := rand.New(rand.NewSource(5))
	p := sim.NewPSim(c)
	for _, n := range []int{1, 63, 64, 65, 130} {
		pats := make([]logic.Cube, n)
		for k := range pats {
			pats[k] = make(logic.Cube, len(c.PseudoInputs()))
			for i := range pats[k] {
				pats[k][i] = []logic.V{logic.Zero, logic.One, logic.X}[r.Intn(3)]
			}
		}
		got := (&Result{Patterns: pats}).Responses(c)
		for off := 0; off < n; off += 64 {
			end := min(off+64, n)
			p.Load(pats[off:end])
			p.Run()
			for k := off; k < end; k++ {
				if want := p.Response(k - off); got[k].String() != want.String() {
					t.Fatalf("%d patterns, pattern %d: response %v, want %v", n, k, got[k], want)
				}
			}
		}
	}
}

func TestMultiPassConvertsAborts(t *testing.T) {
	// A deliberately tiny first-pass limit aborts hard faults; a second
	// pass at 10x must convert most of them to detections or redundancy
	// proofs.
	c := randomCircuit(t, 5, 10, 120, 5, 5)
	onePass := Generate(c, Options{BacktrackLimit: 2, RandomPatterns: 0, Compact: false, Seed: 1})
	threePass := Generate(c, Options{BacktrackLimit: 2, RandomPatterns: 0, Compact: false, Seed: 1, Passes: 3})
	if threePass.NumAborted >= onePass.NumAborted && onePass.NumAborted > 0 {
		t.Errorf("escalation did not reduce aborts: %d -> %d", onePass.NumAborted, threePass.NumAborted)
	}
	if threePass.NumDetected < onePass.NumDetected {
		t.Errorf("escalation lost detections: %d -> %d", onePass.NumDetected, threePass.NumDetected)
	}
	undetected := threePass.NumFaults - threePass.NumDetected
	if undetected > threePass.NumRedundant+threePass.NumAborted {
		t.Error("accounting hole after escalation")
	}
}
