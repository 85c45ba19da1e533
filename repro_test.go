package repro

import (
	"strings"
	"testing"
)

func TestFacadeATPGFlow(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
n = NAND(a, b)
y = NOT(n)
`
	c, err := ParseBenchString("tiny", src)
	if err != nil {
		t.Fatal(err)
	}
	if n := FaultUniverseSize(c); n == 0 {
		t.Error("no faults")
	}
	res := RunATPG(c, DefaultATPGOptions())
	if res.Coverage != 1 {
		t.Errorf("coverage = %v", res.Coverage)
	}
	var b strings.Builder
	if err := WriteBench(&b, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "NAND") {
		t.Error("WriteBench output wrong")
	}
}

func TestFacadeConeExample(t *testing.T) {
	m := ConeExample()
	if m.MonolithicStimulusBits() != 20000 || m.ModularStimulusBits() != 15000 {
		t.Error("cone example numbers wrong")
	}
}

func TestFacadeSOCProfiles(t *testing.T) {
	if SOC1().TDVModular() != 45183 {
		t.Error("SOC1 wrong")
	}
	if SOC2().TDVModular() != 1344585 {
		t.Error("SOC2 wrong")
	}
}

func TestFacadeISOCost(t *testing.T) {
	got := ISOCost(WrapperSpec{Inputs: 175, Outputs: 212}, []WrapperSpec{{Inputs: 62, Outputs: 25}})
	if got != 474 {
		t.Errorf("ISOCost = %d, want 474", got)
	}
}

func TestFacadeTAM(t *testing.T) {
	core := CoreTest{Name: "c", Inputs: 8, Outputs: 6, Chains: []int{20, 20}, Patterns: 40}
	wc, err := DesignWrapperChains(core, 4)
	if err != nil {
		t.Fatal(err)
	}
	if CoreTestTime(core, wc) <= 0 {
		t.Error("zero test time")
	}
	if _, err := DesignWrapperChains(core, 0); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestRenderTable1MatchesPaperNumbers(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{"45,183", "129,816", "51,085", "2.87", "1.13"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable2MatchesPaperNumbers(t *testing.T) {
	out := RenderTable2()
	for _, want := range []string{"1,344,585", "2,986,200", "1,428,320", "2.22", "1.06"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable3MatchesPaperNumbers(t *testing.T) {
	out := RenderTable3()
	for _, want := range []string{"28,538,030", "9,521,850", "10,120,080", "39,069"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable4MatchesPaperNumbers(t *testing.T) {
	out, err := RenderTable4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"d695", "a586710",
		"2,987,712", "144,302,301,808",
		"-59.3%", "-99.3%", "+38.6%", // the two extremes and g12710's increase
		"950,273,712",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigures(t *testing.T) {
	f1 := RenderFigure1()
	if !strings.Contains(f1, "20,000") {
		t.Errorf("Figure 1 missing 20,000 bits:\n%s", f1)
	}
	f2 := RenderFigure2()
	if !strings.Contains(f2, "15,000") || !strings.Contains(f2, "25%") {
		t.Errorf("Figure 2 wrong:\n%s", f2)
	}
	f3 := RenderFigure3()
	if !strings.Contains(f3, "Core2") || !strings.Contains(f3, "Core19") {
		t.Errorf("Figure 3 wrong:\n%s", f3)
	}
	if !strings.Contains(RenderFigure4(), "s713") {
		t.Error("Figure 4 wrong")
	}
	if !strings.Contains(RenderFigure5(), "s15850") {
		t.Error("Figure 5 wrong")
	}
}

func TestAnalyzeConesFacade(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(x)
OUTPUT(y)
x = AND(a, b)
y = OR(b, c)
`
	circ, err := ParseBenchString("two-cones", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeCones(circ, DefaultATPGOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Profiles) != 2 {
		t.Errorf("profiles = %d", len(a.Profiles))
	}
	if a.OverlapPairs != 1 {
		t.Errorf("overlap pairs = %d (cones share input b)", a.OverlapPairs)
	}
}

func TestIsolateFacade(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	c, err := ParseBenchString("inv", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Isolate(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InputCells) != 1 || len(res.OutputCells) != 1 {
		t.Error("isolation cells wrong")
	}
}

// TestLiveSOC1Experiment is the end-to-end Equation 2 validation: the
// monolithic pattern count of the flattened SOC must meet or exceed the
// maximum per-core count, and modular TDV must undercut monolithic TDV.
func TestLiveSOC1Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment skipped in -short mode")
	}
	r, err := LiveSOC1(LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Eq2Holds() {
		t.Errorf("Eq.2 violated: T_mono=%d < max core T=%d", r.TMono, r.MaxCoreT)
	}
	if r.MonoCoverage < 0.95 {
		t.Errorf("monolithic coverage %.3f too low", r.MonoCoverage)
	}
	for _, c := range r.Cores {
		if c.Coverage < 0.95 {
			t.Errorf("core %s coverage %.3f too low", c.Name, c.Coverage)
		}
	}
	if r.Report.TDVModular >= r.Report.TDVMonoAct {
		t.Errorf("modular TDV %d not below monolithic %d", r.Report.TDVModular, r.Report.TDVMonoAct)
	}
	if r.Report.RatioVsActual < 1.2 {
		t.Errorf("reduction ratio %.2f too small for SOC1's pattern variation", r.Report.RatioVsActual)
	}
	out := RenderLive(r)
	if !strings.Contains(out, "Eq.2 check") {
		t.Error("RenderLive missing the Eq.2 verdict")
	}
}

func TestLiveSOC2ExperimentScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("live experiment skipped in -short mode")
	}
	r, err := LiveSOC2(LiveOptions{GateScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Eq2Holds() {
		t.Errorf("Eq.2 violated: T_mono=%d < max core T=%d", r.TMono, r.MaxCoreT)
	}
	if r.Report.TDVModular >= r.Report.TDVMonoAct {
		t.Error("modular TDV not below monolithic")
	}
}

func TestLiveOptionsDefaults(t *testing.T) {
	o := LiveOptions{}.withDefaults()
	if o.GateScale != 1 || o.InterconnectFraction != 0.45 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.ATPG.BacktrackLimit == 0 {
		t.Error("ATPG defaults not applied")
	}
	o2 := LiveOptions{GateScale: 3}.withDefaults()
	if o2.GateScale != 1 {
		t.Error("out-of-range scale not clamped")
	}
}

func TestLiveUnknownCore(t *testing.T) {
	if _, err := liveSOC(nil, "X", []string{"c6288"}, LiveOptions{}); err == nil {
		t.Error("unknown core accepted")
	}
}

func TestTable4Data(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Computed.TDVMonoOpt != r.Published.TDVMonoOpt {
			t.Errorf("%s: opt mismatch", r.Name)
		}
		if r.Computed.TDVModular != r.Published.ConsistentModular() {
			t.Errorf("%s: modular mismatch", r.Name)
		}
	}
}
