package cones

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/lint"
	"repro/internal/netlist"
)

func TestPaperExampleReproducesSection3(t *testing.T) {
	m := PaperExample()
	if got := m.TotalCells(); got != 50 {
		t.Errorf("total cells = %d, want 50", got)
	}
	if got := m.MaxPatterns(); got != 400 {
		t.Errorf("max patterns = %d, want 400", got)
	}
	// Figure 1(a): 400 x 50 = 20,000 stimulus bits.
	if got := m.MonolithicStimulusBits(); got != 20000 {
		t.Errorf("monolithic bits = %d, want 20000", got)
	}
	// Figure 2(a): 600x20 + 300x10 = 15,000 bits.
	if got := m.ModularStimulusBits(); got != 15000 {
		t.Errorf("modular bits = %d, want 15000", got)
	}
	// "a reduction of test data volume of 25%".
	if got := m.Reduction(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("reduction = %v, want 0.25", got)
	}
}

func TestModularWithWrapperPenalty(t *testing.T) {
	m := PaperExample()
	// Wrapping each cone-core with cells on its support (Figure 2(b))
	// increases per-pattern load; with zero cells it equals the bare sum.
	zero, err := m.ModularStimulusBitsWithWrapper([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if zero != m.ModularStimulusBits() {
		t.Error("zero wrapper cells must not change the volume")
	}
	with, err := m.ModularStimulusBitsWithWrapper([]int{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(200*25 + 300*15 + 400*25)
	if with != want {
		t.Errorf("wrapped bits = %d, want %d", with, want)
	}
	if _, err := m.ModularStimulusBitsWithWrapper([]int{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestReductionZeroWhenEmpty(t *testing.T) {
	var m Model
	if m.Reduction() != 0 || m.MonolithicStimulusBits() != 0 {
		t.Error("empty model must be all zeros")
	}
}

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

func TestAnalyzeC17(t *testing.T) {
	c, err := netlist.ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, atpg.Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Profiles) != 2 {
		t.Fatalf("profiles = %d, want 2", len(a.Profiles))
	}
	for _, p := range a.Profiles {
		if p.Coverage != 1 {
			t.Errorf("cone %s coverage = %v", p.Apex, p.Coverage)
		}
		if p.Patterns == 0 {
			t.Errorf("cone %s has zero patterns", p.Apex)
		}
		if p.Width != 4 {
			t.Errorf("cone %s width = %d, want 4", p.Apex, p.Width)
		}
		// Every c17 net is controllable and observable, so the SCOAP
		// summary must be finite and positive.
		if p.SCOAPMax <= 0 || p.SCOAPMax >= lint.ScoapInf {
			t.Errorf("cone %s SCOAPMax = %v", p.Apex, p.SCOAPMax)
		}
		if p.SCOAPMean <= 0 || p.SCOAPMean > float64(p.SCOAPMax) {
			t.Errorf("cone %s SCOAPMean = %v (max %v)", p.Apex, p.SCOAPMean, p.SCOAPMax)
		}
	}
	// c17's two output cones overlap in support (G2, G3, G6).
	if a.OverlapPairs != 1 || a.TotalPairs != 1 {
		t.Errorf("overlap pairs = %d/%d, want 1/1", a.OverlapPairs, a.TotalPairs)
	}
	if a.MaxPatterns() == 0 {
		t.Error("MaxPatterns zero")
	}
	if len(a.PatternCounts()) != 2 {
		t.Error("PatternCounts wrong")
	}
	if !strings.Contains(a.String(), "c17") {
		t.Errorf("String = %q", a.String())
	}
}

func TestAnalyzeDisjointCones(t *testing.T) {
	// Two completely independent cones: no overlap pairs.
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
y = AND(a, b)
z = OR(c, d)
`
	circ, err := netlist.ParseBenchString("disjoint", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(circ, atpg.Options{BacktrackLimit: 50, RandomPatterns: 0, Compact: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.OverlapPairs != 0 {
		t.Errorf("disjoint cones reported overlapping: %d", a.OverlapPairs)
	}
}

func TestNormStdev(t *testing.T) {
	// The per-cone spread is core's Table 4 statistic. Paper Table 4:
	// g12710's counts give 0.18 (sample stdev / mean).
	if got := core.NormStdev([]int{852, 1314, 1223, 1223}); math.Abs(got-0.178) > 0.002 {
		t.Errorf("norm stdev = %v, want ~0.178", got)
	}
	if core.NormStdev([]int{5}) != 0 || core.NormStdev(nil) != 0 {
		t.Error("degenerate stdev must be 0")
	}
	if core.NormStdev([]int{0, 0, 0}) != 0 {
		t.Error("zero-mean stdev must be 0")
	}
	if core.NormStdev([]int{7, 7, 7}) != 0 {
		t.Error("constant counts must have zero stdev")
	}
}

// TestModelAgreesWithCore holds the Section 3 cone model to the paper's
// Equations 3 and 4 in internal/core: each cone becomes a core of S =
// Cells, T = Patterns and I = O = its wrapper cells, embedded in an empty
// tester-accessible top. Core counts stimulus and response, so every
// figure is twice the model's: the factor 2 is the response half that
// Section 3's stimulus-only figures leave out.
func TestModelAgreesWithCore(t *testing.T) {
	const responseHalf = 2
	check := func(name string, m Model, wrapper []int) {
		t.Helper()
		top := &core.Module{Name: "top", PortsTesterAccessible: true}
		for i, c := range m.Cones {
			top.Children = append(top.Children, &core.Module{
				Name:   c.Name,
				Params: core.Params{Inputs: wrapper[i], Outputs: wrapper[i], ScanCells: c.Cells, Patterns: c.Patterns},
			})
		}
		s := &core.SOC{Name: name, Top: top}
		if got, want := s.TDVMonoOpt(), responseHalf*m.MonolithicStimulusBits(); got != want {
			t.Errorf("%s: TDVMonoOpt = %d, want 2×%d", name, got, want/responseHalf)
		}
		withWrapper, err := m.ModularStimulusBitsWithWrapper(wrapper)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.TDVModular(), responseHalf*withWrapper; got != want {
			t.Errorf("%s: TDVModular = %d, want 2×%d (wrapper %v)", name, got, withWrapper, wrapper)
		}
		if !slices.ContainsFunc(wrapper, func(w int) bool { return w != 0 }) {
			if got, want := s.TDVModular(), responseHalf*m.ModularStimulusBits(); got != want {
				t.Errorf("%s: TDVModular = %d, want 2×%d with no wrapper cells", name, got, want/responseHalf)
			}
		}
	}
	paper := PaperExample()
	check("paper", paper, []int{0, 0, 0})
	check("paper+wrapper", paper, []int{4, 2, 6})

	rng := rand.New(rand.NewSource(2008))
	for trial := 0; trial < 200; trial++ {
		var m Model
		wrapper := make([]int, 1+rng.Intn(8))
		for i := range wrapper {
			m.Cones = append(m.Cones, Spec{
				Name:     fmt.Sprintf("cone%d", i),
				Cells:    rng.Intn(200),
				Patterns: rng.Intn(1000),
			})
			if trial%2 == 1 {
				wrapper[i] = rng.Intn(32)
			}
		}
		check(fmt.Sprintf("random%d", trial), m, wrapper)
	}
}
