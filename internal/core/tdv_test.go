package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// soc1 builds the paper's SOC1 profile (Table 1) directly in this package
// to keep the equation tests free of higher-level dependencies.
func soc1() *SOC {
	return &SOC{
		Name: "SOC1",
		Top: &Module{
			Name:                  "Top",
			Params:                Params{Inputs: 51, Outputs: 10, Patterns: 2},
			PortsTesterAccessible: true,
			Children: []*Module{
				{Name: "s713", Params: Params{Inputs: 35, Outputs: 23, ScanCells: 19, Patterns: 52}},
				{Name: "s953", Params: Params{Inputs: 16, Outputs: 23, ScanCells: 29, Patterns: 85}},
				{Name: "s1423a", Params: Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
				{Name: "s1423b", Params: Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
				{Name: "s1423c", Params: Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
			},
		},
		TMono: 216,
	}
}

func soc2() *SOC {
	return &SOC{
		Name: "SOC2",
		Top: &Module{
			Name:                  "Top",
			Params:                Params{Inputs: 14, Outputs: 198, Patterns: 2},
			PortsTesterAccessible: true,
			Children: []*Module{
				{Name: "s953", Params: Params{Inputs: 16, Outputs: 23, ScanCells: 29, Patterns: 85}},
				{Name: "s5378", Params: Params{Inputs: 35, Outputs: 49, ScanCells: 179, Patterns: 244}},
				{Name: "s13207", Params: Params{Inputs: 31, Outputs: 121, ScanCells: 669, Patterns: 452}},
				{Name: "s15850", Params: Params{Inputs: 14, Outputs: 87, ScanCells: 597, Patterns: 428}},
			},
		},
		TMono: 945,
	}
}

func TestTable1PerCoreTDV(t *testing.T) {
	s := soc1()
	want := map[string]int64{
		"Top":    326,
		"s713":   4992,
		"s953":   8245,
		"s1423a": 10540,
		"s1423b": 10540,
		"s1423c": 10540,
	}
	for _, m := range s.Modules() {
		if got := m.ModularTDV(); got != want[m.Name] {
			t.Errorf("%s: modular TDV = %d, want %d", m.Name, got, want[m.Name])
		}
	}
	if got := s.TDVModular(); got != 45183 {
		t.Errorf("SOC1 modular TDV = %d, want 45183", got)
	}
}

func TestTable1MonolithicAndRatios(t *testing.T) {
	s := soc1()
	if got := s.TotalScanCells(); got != 270 {
		t.Errorf("S_chip = %d, want 270", got)
	}
	if got := s.TDVMono(); got != 129816 {
		t.Errorf("TDV_mono = %d, want 129816", got)
	}
	if got := s.MaxPatterns(); got != 85 {
		t.Errorf("T_max = %d, want 85", got)
	}
	if got := s.TDVMonoOpt(); got != 51085 {
		t.Errorf("TDV_mono_opt = %d, want 51085", got)
	}
	r := s.Analyze()
	if math.Abs(r.RatioVsActual-2.87) > 0.005 {
		t.Errorf("reduction ratio = %.3f, want 2.87", r.RatioVsActual)
	}
	if math.Abs(r.RatioVsOpt-1.13) > 0.005 {
		t.Errorf("pessimistic ratio = %.3f, want 1.13", r.RatioVsOpt)
	}
	if math.Abs(r.PessimismFactor-2.5) > 0.05 {
		t.Errorf("pessimism factor = %.2f, want ~2.5", r.PessimismFactor)
	}
	if r.NumCores != 5 || r.NumModules != 6 {
		t.Errorf("core counts: %d cores / %d modules", r.NumCores, r.NumModules)
	}
}

func TestTable1PenaltyBenefitIdentity(t *testing.T) {
	s := soc1()
	// First-principles Eq. 7/8 values (the paper's printed 10,627/95,260
	// absorb the chip-port correction; see package comment and
	// EXPERIMENTS.md).
	if got := s.Penalty(); got != 10749 {
		t.Errorf("penalty = %d, want 10749", got)
	}
	if got := s.Benefit(216); got != 82206 {
		t.Errorf("benefit = %d, want 82206", got)
	}
	if got := s.ChipPortTerm(216); got != 61*216 {
		t.Errorf("chip port term = %d", got)
	}
	if err := s.VerifyIdentity(216); err != nil {
		t.Error(err)
	}
	// The paper's printed penalty − benefit equals ours minus the chip
	// term: both decompositions yield the same TDV_modular.
	paperNet := int64(10627 - 95260)
	ourNet := s.Penalty() - s.Benefit(216) - s.ChipPortTerm(216)
	if paperNet != ourNet {
		t.Errorf("net penalty-benefit: paper %d, ours %d", paperNet, ourNet)
	}
}

func TestTable2Values(t *testing.T) {
	s := soc2()
	want := map[string]int64{
		"Top":    752,
		"s953":   8245,
		"s5378":  107848,
		"s13207": 673480,
		"s15850": 554260,
	}
	for _, m := range s.Modules() {
		if got := m.ModularTDV(); got != want[m.Name] {
			t.Errorf("%s: modular TDV = %d, want %d", m.Name, got, want[m.Name])
		}
	}
	if got := s.TDVModular(); got != 1344585 {
		t.Errorf("SOC2 modular TDV = %d, want 1344585", got)
	}
	if got := s.TDVMono(); got != 2986200 {
		t.Errorf("TDV_mono = %d, want 2986200", got)
	}
	if got := s.TDVMonoOpt(); got != 1428320 {
		t.Errorf("TDV_mono_opt = %d, want 1428320", got)
	}
	r := s.Analyze()
	if math.Abs(r.RatioVsActual-2.22) > 0.005 {
		t.Errorf("reduction ratio = %.3f, want 2.22", r.RatioVsActual)
	}
	if math.Abs(r.RatioVsOpt-1.06) > 0.005 {
		t.Errorf("pessimistic ratio = %.3f, want 1.06", r.RatioVsOpt)
	}
	if math.Abs(r.PessimismFactor-2.1) > 0.05 {
		t.Errorf("pessimism factor = %.2f, want ~2.1", r.PessimismFactor)
	}
	if err := s.VerifyIdentity(945); err != nil {
		t.Error(err)
	}
	// Paper's printed net decomposition matches ours after the chip-port
	// correction: 97,701 − 1,739,316 == Pen − Ben − ChipPort.
	if int64(97701-1739316) != s.Penalty()-s.Benefit(945)-s.ChipPortTerm(945) {
		t.Error("SOC2 net penalty-benefit decomposition mismatch")
	}
}

func TestHierarchicalISOCost(t *testing.T) {
	// p34392 Core 2 (Table 3): I=165 O=263 S=8856 T=514, children 3..9.
	core2 := &Module{
		Name:   "Core2",
		Params: Params{Inputs: 165, Outputs: 263, ScanCells: 8856, Patterns: 514},
		Children: []*Module{
			{Params: Params{Inputs: 37, Outputs: 25, Patterns: 3108}},
			{Params: Params{Inputs: 38, Outputs: 25, Patterns: 6180}},
			{Params: Params{Inputs: 62, Outputs: 25, Patterns: 12336}},
			{Params: Params{Inputs: 11, Outputs: 8, Patterns: 1965}},
			{Params: Params{Inputs: 9, Outputs: 8, Patterns: 512}},
			{Params: Params{Inputs: 46, Outputs: 17, Patterns: 9930}},
			{Params: Params{Inputs: 41, Outputs: 33, Patterns: 228}},
		},
	}
	if got := core2.ISOCost(); got != 813 {
		t.Errorf("ISOCOST(Core2) = %d, want 813", got)
	}
	if got := core2.ModularTDV(); got != 9521850 {
		t.Errorf("TDV(Core2) = %d, want 9521850 (Table 3)", got)
	}
}

func TestBidirsCountTwice(t *testing.T) {
	p := Params{Inputs: 3, Outputs: 2, Bidirs: 4}
	if got := p.PortBits(); got != 13 {
		t.Errorf("PortBits = %d, want 13", got)
	}
}

func TestNormStdevMatchesPaper(t *testing.T) {
	// g12710's published pattern counts: 852, 1314, 1223, 1223 -> 0.18
	// (with the sample n-1 divisor).
	s := &SOC{Name: "g12710-like", Top: &Module{
		Params: Params{Patterns: 852},
		Children: []*Module{
			{Params: Params{Patterns: 1314}},
			{Params: Params{Patterns: 1223}},
			{Params: Params{Patterns: 1223}},
		},
	}}
	if got := s.NormStdevPatterns(); math.Abs(got-0.18) > 0.005 {
		t.Errorf("norm stdev = %.3f, want 0.18", got)
	}
}

func TestNormStdevEdgeCases(t *testing.T) {
	single := &SOC{Top: &Module{Params: Params{Patterns: 7}}}
	if single.NormStdevPatterns() != 0 {
		t.Error("single-module stdev must be 0")
	}
	zeros := &SOC{Top: &Module{Children: []*Module{{}, {}}}}
	if zeros.NormStdevPatterns() != 0 {
		t.Error("zero-mean stdev must be 0")
	}
}

func TestBenefitPanicsOnEq2Violation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Benefit with T > T_mono did not panic")
		}
	}()
	s := soc1()
	s.Benefit(10) // far below max core pattern count 85
}

// TestValidate checks the one Eq. 2 check outside Benefit's panic: it
// accepts the paper's SOCs, a T_mono at T_max and an unmeasured T_mono,
// and refuses a T_mono below T_max and negative counts.
func TestValidate(t *testing.T) {
	for _, s := range []*SOC{soc1(), soc2()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, tmono := range []int{0, 85} {
		s := soc1()
		s.TMono = tmono
		if err := s.Validate(); err != nil {
			t.Errorf("T_mono=%d: %v", tmono, err)
		}
	}
	below := soc1()
	below.TMono = 84
	if err := below.Validate(); err == nil || err.Error() != "T_mono=84 is below T_max=85, violating Eq. 2" {
		t.Errorf("T_mono=84: got %v", err)
	}
	negTMono := soc1()
	negTMono.TMono = -1
	negScan := soc1()
	negScan.Top.Children[2].ScanCells = -3
	for _, s := range []*SOC{negTMono, negScan} {
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("negative count: got %v", err)
		}
	}
}

// TestValidateRefusesOverflow holds every magnitude branch of Validate:
// each profile leaves int64 in exactly one place and is refused with its
// module and equation named, among them the probe of one core at
// S = 2·10⁹, T = 3·10⁹, whose Eq. 4 term wraps to a negative volume. A
// profile a factor of two below the probe passes and balances Eq. 6.
func TestValidateRefusesOverflow(t *testing.T) {
	soc := func(tmono int, top Params, accessible bool, cores ...Params) *SOC {
		s := &SOC{Name: "big", TMono: tmono, Top: &Module{Name: "Top", Params: top, PortsTesterAccessible: accessible}}
		for i, p := range cores {
			s.Top.Children = append(s.Top.Children, &Module{Name: string(rune('A' + i)), Params: p})
		}
		return s
	}
	const big = math.MaxInt64
	for _, tc := range []struct {
		s    *SOC
		want string
	}{
		{soc(0, Params{Patterns: 1}, false, Params{ScanCells: 2e9, Patterns: 3e9}), "module A: Eq. 4 TDV_modular"},
		{soc(0, Params{Patterns: 1}, false, Params{Inputs: big, Outputs: 1}), "module Top: Eq. 5 ISOCOST"},
		{soc(0, Params{Patterns: 1}, false, Params{Bidirs: big/2 + 1}), "module Top: Eq. 5 ISOCOST"},
		{soc(0, Params{Patterns: 1}, false, Params{ScanCells: 2e9, Patterns: 1}, Params{Patterns: 3e9}), "module A: Eq. 8 TDV_benefit"},
		{soc(0, Params{}, false, Params{ScanCells: 3e18}, Params{ScanCells: 3e18}), "module B: Eq. 1/3 chip scan bits"},
		{soc(0, Params{Inputs: 4e18, Patterns: 1}, true, Params{Patterns: 3}), "module Top: Eq. 1/3 TDV_mono"},
		{soc(0, Params{Inputs: 5e18, Patterns: 1}, true, Params{Inputs: 2.25e18, Patterns: 1}), "module Top: Eq. 6 TDV_mono + TDV_penalty"},
	} {
		err := tc.s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("%+v: got %v, want %q", tc.s.Top.Children[0].Params, err, tc.want)
		}
	}
	fits := soc(3000000000, Params{Inputs: 1, Outputs: 1, Patterns: 1}, false, Params{ScanCells: 1e9, Patterns: 3e9})
	if err := fits.Validate(); err != nil {
		t.Fatal(err)
	}
	if r := fits.Analyze(); r.TDVModular <= 0 || r.TDVMonoAct <= 0 || fits.VerifyIdentity(fits.TMono) != nil {
		t.Errorf("a profile that fits: %+v", r)
	}
}

func TestTDVMonoUnmeasured(t *testing.T) {
	s := soc1()
	s.TMono = 0
	if s.TDVMono() != 0 {
		t.Error("TDVMono must be 0 when unmeasured")
	}
	r := s.Analyze()
	if r.TDVMonoAct != 0 || r.RatioVsActual != 0 || r.PessimismFactor != 0 {
		t.Error("unmeasured analysis must zero the actual-based fields")
	}
	// Benefit then references T_max.
	if r.Benefit != s.Benefit(s.MaxPatterns()) {
		t.Error("benefit must use T_max when unmeasured")
	}
}

// randomSOC draws a consistent random SOC: a top module with one to eight
// first-level cores, some of which carry grandchildren. TMono is left 0.
func randomSOC(r *rand.Rand) *SOC {
	top := &Module{
		Name:   "top",
		Params: Params{Inputs: r.Intn(100), Outputs: r.Intn(100), Bidirs: r.Intn(20), ScanCells: r.Intn(50), Patterns: 1 + r.Intn(50)},
	}
	n := 1 + r.Intn(8)
	for i := 0; i < n; i++ {
		ch := &Module{Params: Params{
			Inputs: r.Intn(200), Outputs: r.Intn(200), Bidirs: r.Intn(30),
			ScanCells: r.Intn(5000), Patterns: 1 + r.Intn(10000),
		}}
		// Occasionally add grandchildren.
		for j := 0; j < r.Intn(3); j++ {
			ch.Children = append(ch.Children, &Module{Params: Params{
				Inputs: r.Intn(100), Outputs: r.Intn(100), Patterns: 1 + r.Intn(8000),
			}})
		}
		top.Children = append(top.Children, ch)
	}
	return &SOC{Name: "rand", Top: top}
}

// cloneModule deep-copies a module tree so a test can rewrite it freely.
func cloneModule(m *Module) *Module {
	c := *m
	c.Children = make([]*Module, len(m.Children))
	for i, ch := range m.Children {
		c.Children[i] = cloneModule(ch)
	}
	return &c
}

// Property: the Equation 6 identity holds for every consistent random SOC
// and every t >= T_max.
func TestIdentityProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSOC(r)
		t1 := s.MaxPatterns()
		t2 := t1 + r.Intn(1000)
		return s.VerifyIdentity(t1) == nil && s.VerifyIdentity(t2) == nil
	}, cfg); err != nil {
		t.Error(err)
	}
}

// tdvTerms are the int64 quantities of Eq. 1, 3, 4, 7 and 8 at the SOC's
// own TMono.
func tdvTerms(s *SOC) [5]int64 {
	return [5]int64{s.TDVMono(), s.TDVMonoOpt(), s.TDVModular(), s.Penalty(), s.Benefit(s.TMono)}
}

// Metamorphic properties of Eq. 1-8 on random SOCs: permuting the
// first-level cores changes no TDV quantity, and scaling every pattern
// count (T_i and T_mono) by an integer k scales every TDV quantity by
// exactly k. The normalized pattern-count spread stays within 1e-12
// relative under both: its floating-point sums depend on module order.
func TestMetamorphicProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSOC(r)
		s.TMono = s.MaxPatterns() + r.Intn(1000)
		want := tdvTerms(s)
		stdev := s.NormStdevPatterns()

		perm := &SOC{Name: s.Name, Top: cloneModule(s.Top), TMono: s.TMono}
		kids := perm.Top.Children
		r.Shuffle(len(kids), func(i, j int) { kids[i], kids[j] = kids[j], kids[i] })
		if got := tdvTerms(perm); got != want {
			t.Logf("seed %d: permuted cores give %v, want %v", seed, got, want)
			return false
		}
		if !closeRel(perm.NormStdevPatterns(), stdev) {
			t.Logf("seed %d: permuted cores give stdev %v, want %v", seed, perm.NormStdevPatterns(), stdev)
			return false
		}

		k := 2 + r.Intn(9)
		scaled := &SOC{Name: s.Name, Top: cloneModule(s.Top), TMono: k * s.TMono}
		for _, m := range scaled.Modules() {
			m.Patterns *= k
		}
		got := tdvTerms(scaled)
		for i := range want {
			if got[i] != int64(k)*want[i] {
				t.Logf("seed %d: term %d scaled by %d is %d, want %d", seed, i, k, got[i], int64(k)*want[i])
				return false
			}
		}
		if !closeRel(scaled.NormStdevPatterns(), stdev) {
			t.Logf("seed %d: stdev %v scaled by %d became %v", seed, stdev, k, scaled.NormStdevPatterns())
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// closeRel reports whether got is within 1e-12 relative of want.
func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// Property: modular TDV decomposes as Σ 2S·T plus the penalty.
func TestModularDecompositionProperty(t *testing.T) {
	s := soc2()
	var scanPart int64
	for _, m := range s.Modules() {
		scanPart += 2 * int64(m.ScanCells) * int64(m.Patterns)
	}
	if s.TDVModular() != scanPart+s.Penalty() {
		t.Error("TDV_modular != Σ2S·T + penalty")
	}
}

func TestFlattenPreOrder(t *testing.T) {
	s := soc1()
	mods := s.Modules()
	if len(mods) != 6 || mods[0].Name != "Top" || mods[1].Name != "s713" {
		t.Errorf("pre-order wrong: %v", mods[0].Name)
	}
}
