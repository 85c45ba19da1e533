package faultsim

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench89"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// The differential suite pits the PPSFP kernel against the independent
// serial reference implementation on every .bench fixture, on randomized
// netlists, at pattern counts straddling the 64-bit word boundary, and on
// degenerate stimulus words. "Match" always means the exact first-detection
// table — not just coverage counts.

// oddPatternCounts straddles every word-packing edge: a lone pattern, one
// short of a word, exactly one word, one into the second word, and one
// short of two words.
var oddPatternCounts = []int{1, 63, 64, 65, 127}

// fixtureCircuits parses every valid .bench fixture shipped with the
// netlist package.
func fixtureCircuits(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "netlist", "testdata", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no netlist testdata fixtures found")
	}
	out := make(map[string]*netlist.Circuit, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(p)
		c, err := netlist.ParseBenchString(name, string(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = c
	}
	return out
}

// diffAgainstSerial asserts the PPSFP engine (serial and sharded) produces
// the exact first-detection table of the pattern-at-a-time serial engine.
func diffAgainstSerial(t *testing.T, label string, c *netlist.Circuit, patterns []logic.Cube, flist []faults.Fault) {
	t.Helper()
	want := SerialSimulate(c, patterns, flist)
	got := Simulate(c, patterns, flist)
	compareDetections(t, label+"/ppsfp-vs-serial", c, flist, got, want)

	// Sharded kernel: force the shard path even on tiny fault lists.
	old := minShardRoots
	minShardRoots = 1
	defer func() { minShardRoots = old }()
	sharded := SimulateWorkers(c, patterns, flist, 4)
	compareDetections(t, label+"/sharded-vs-serial", c, flist, sharded, want)
}

func compareDetections(t *testing.T, label string, c *netlist.Circuit, flist []faults.Fault, got, want *Result) {
	t.Helper()
	if got.NumDetected != want.NumDetected {
		t.Fatalf("%s: detected %d, want %d", label, got.NumDetected, want.NumDetected)
	}
	for i := range flist {
		if got.DetectedBy[i] != want.DetectedBy[i] {
			t.Fatalf("%s: fault %s first-detect %d, want %d",
				label, flist[i].String(c), got.DetectedBy[i], want.DetectedBy[i])
		}
	}
}

// TestDifferentialFixtures runs every fixture at every odd pattern count
// against the serial engine.
func TestDifferentialFixtures(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for name, c := range fixtureCircuits(t) {
		flist := faults.Universe(c)
		width := len(c.PseudoInputs())
		for _, n := range oddPatternCounts {
			diffAgainstSerial(t, name, c, randomPatterns(r, width, n), flist)
		}
	}
}

// TestDifferentialFixturesOracle is the exhaustive leg: on every fixture
// narrow enough to brute-force, all 2^w patterns must yield identical
// first-detection tables from the PPSFP kernel and the serial reference.
func TestDifferentialFixturesOracle(t *testing.T) {
	for name, c := range fixtureCircuits(t) {
		width := len(c.PseudoInputs())
		if width > MaxOracleInputs {
			t.Logf("%s: %d inputs, beyond exhaustive range — skipped", name, width)
			continue
		}
		flist := faults.CollapsedUniverse(c)
		patterns := AllPatterns(width)
		compareDetections(t, name+"/ppsfp-vs-serial", c, flist,
			Simulate(c, patterns, flist), SerialSimulate(c, patterns, flist))
	}
}

// TestDifferentialRandomNetlists sweeps randomized netlist shapes — deep,
// wide, sequential, tiny — against the serial engine.
func TestDifferentialRandomNetlists(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	shapes := []struct {
		in, gates, out, dff int
	}{
		{2, 8, 1, 0},   // tiny
		{6, 30, 3, 2},  // small sequential
		{8, 120, 4, 6}, // mid
		{12, 250, 6, 10},
		{5, 60, 2, 0}, // combinational only
		{9, 90, 5, 16},
	}
	for _, s := range shapes {
		c := randomCircuit(t, r, s.in, s.gates, s.out, s.dff)
		flist := faults.Universe(c)
		width := len(c.PseudoInputs())
		for _, n := range []int{1, 65, 127} {
			diffAgainstSerial(t, c.Name, c, randomPatterns(r, width, n), flist)
		}
	}
}

// TestDifferentialEdgeWords covers degenerate stimulus: all-X cubes (the
// deterministic X-as-0 fill), constant all-zero and all-one words, and a
// full word of identical patterns.
func TestDifferentialEdgeWords(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	circuits := map[string]*netlist.Circuit{
		"c17":  mustParse(t, "c17", c17Bench),
		"seq":  mustParse(t, "seq", seqBench),
		"rand": randomCircuit(t, r, 7, 70, 4, 5),
	}
	for name, c := range circuits {
		flist := faults.Universe(c)
		width := len(c.PseudoInputs())
		allX := make([]logic.Cube, 64)
		allZero := make([]logic.Cube, 64)
		allOne := make([]logic.Cube, 64)
		for i := range allX {
			allX[i] = logic.NewCube(width)
			allZero[i] = make(logic.Cube, width)
			allOne[i] = make(logic.Cube, width)
			for j := 0; j < width; j++ {
				allZero[i][j] = logic.Zero
				allOne[i][j] = logic.One
			}
		}
		one := randomPatterns(r, width, 1)[0]
		same := make([]logic.Cube, 64)
		for i := range same {
			same[i] = one
		}
		for label, patterns := range map[string][]logic.Cube{
			"all-x": allX, "all-zero": allZero, "all-one": allOne, "repeated": same,
		} {
			diffAgainstSerial(t, name+"/"+label, c, patterns, flist)
		}
		// X-as-0 convention: an all-X word must behave exactly like an
		// all-zero word.
		x := Simulate(c, allX, flist)
		z := Simulate(c, allZero, flist)
		compareDetections(t, name+"/x-equals-zero", c, flist, x, z)
	}
}

// TestDifferentialStandinSerial runs a real-sized generated circuit (s713)
// through the serial engine at word-straddling pattern counts — the "full
// input range" differential check that the oracle cannot reach.
func TestDifferentialStandinSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("serial reference on s713 skipped in -short mode")
	}
	prof, ok := bench89.ProfileByName("s713")
	if !ok {
		t.Fatal("no s713 profile")
	}
	c, err := bench89.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	flist := faults.CollapsedUniverse(c)
	r := rand.New(rand.NewSource(404))
	for _, n := range oddPatternCounts {
		diffAgainstSerial(t, "s713", c, randomPatterns(r, len(c.PseudoInputs()), n), flist)
	}
}
