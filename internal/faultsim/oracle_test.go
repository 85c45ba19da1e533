package faultsim

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// oracleCircuits collects every exhaustive-oracle subject: the testdata
// benches plus the two inline netlists the engine tests already use. Only
// circuits narrow enough to brute-force are returned.
func oracleCircuits(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{
		"c17-inline": mustParse(t, "c17-inline", c17Bench),
		"seq-inline": mustParse(t, "seq-inline", seqBench),
	}
	paths, err := filepath.Glob(filepath.Join("..", "netlist", "testdata", "*.bench"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no testdata benches found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".bench")
		c, err := netlist.ParseBenchString(name, string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if w := len(c.PseudoInputs()); w > MaxOracleInputs {
			t.Logf("skipping %s: %d pseudo inputs > %d", name, w, MaxOracleInputs)
			continue
		}
		out[name] = c
	}
	return out
}

func TestAllPatternsEnumeration(t *testing.T) {
	ps := AllPatterns(3)
	if len(ps) != 8 {
		t.Fatalf("AllPatterns(3) returned %d patterns", len(ps))
	}
	seen := map[string]bool{}
	for k, p := range ps {
		if len(p) != 3 {
			t.Fatalf("pattern %d width %d", k, len(p))
		}
		for j := 0; j < 3; j++ {
			want := logic.FromBool(k&(1<<uint(j)) != 0)
			if p[j] != want {
				t.Fatalf("pattern %d position %d = %v, want %v", k, j, p[j], want)
			}
		}
		seen[p.String()] = true
	}
	if len(seen) != 8 {
		t.Fatalf("patterns not distinct: %d unique", len(seen))
	}
}

// TestOracleDifferentialExhaustive is the brute-force cross-check: for
// every testdata circuit, every collapsed fault, and ALL 2^w patterns, the
// bit-parallel engine — serial and sharded at several worker counts — must
// report the identical first-detection table the serial reference computes.
func TestOracleDifferentialExhaustive(t *testing.T) {
	old := minShardRoots
	minShardRoots = 1 // force even tiny fault lists through the sharded path
	defer func() { minShardRoots = old }()

	for name, c := range oracleCircuits(t) {
		t.Run(name, func(t *testing.T) {
			flist := faults.CollapsedUniverse(c)
			patterns := AllPatterns(len(c.PseudoInputs()))
			want := SerialSimulate(c, patterns, flist)
			for _, w := range []int{1, 2, 3, 8} {
				got := SimulateWorkers(c, patterns, flist, w)
				if got.NumDetected != want.NumDetected {
					t.Fatalf("workers=%d: NumDetected %d, oracle %d", w, got.NumDetected, want.NumDetected)
				}
				for fi := range flist {
					if got.DetectedBy[fi] != want.DetectedBy[fi] {
						t.Fatalf("workers=%d fault %s: engine DetectedBy %d, oracle %d",
							w, flist[fi].String(c), got.DetectedBy[fi], want.DetectedBy[fi])
					}
				}
			}
		})
	}
}

// TestOracleRandomCircuits extends the differential check beyond the
// curated netlists: random multi-level circuits, exhaustive patterns,
// engine (sharded) vs the serial reference.
func TestOracleRandomCircuits(t *testing.T) {
	old := minShardRoots
	minShardRoots = 1
	defer func() { minShardRoots = old }()

	r := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 8; trial++ {
		nIn := 3 + r.Intn(6)
		c := randomCircuit(t, r, nIn, 10+r.Intn(25), 2, r.Intn(3))
		flist := faults.CollapsedUniverse(c)
		patterns := AllPatterns(len(c.PseudoInputs()))
		want := SerialSimulate(c, patterns, flist)
		got := SimulateWorkers(c, patterns, flist, 4)
		for fi := range flist {
			if got.DetectedBy[fi] != want.DetectedBy[fi] {
				t.Fatalf("trial %d fault %s: engine DetectedBy %d, oracle %d",
					trial, flist[fi].String(c), got.DetectedBy[fi], want.DetectedBy[fi])
			}
		}
	}
}
