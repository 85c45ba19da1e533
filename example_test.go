package repro_test

import (
	"fmt"

	"repro"
)

// The bread-and-butter flow: parse a core, run ATPG, read the pattern
// count that feeds the TDV equations.
func ExampleRunATPG() {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
n = NAND(a, b)
y = NOT(n)
`
	c, err := repro.ParseBenchString("tiny", src)
	if err != nil {
		panic(err)
	}
	res := repro.RunATPG(c, repro.DefaultATPGOptions())
	fmt.Printf("coverage %.0f%% with %d faults\n", res.Coverage*100, res.NumFaults)
	// Output:
	// coverage 100% with 4 faults
}

// The paper's SOC1 profile evaluated through Equations 1-8.
func ExampleSOC1() {
	s := repro.SOC1()
	r := s.Analyze()
	fmt.Printf("modular %d vs monolithic %d bits (ratio %.2f)\n",
		r.TDVModular, r.TDVMonoAct, r.RatioVsActual)
	// Output:
	// modular 45183 vs monolithic 129816 bits (ratio 2.87)
}

// The Section 3 worked example of Figures 1 and 2.
func ExampleConeExample() {
	m := repro.ConeExample()
	fmt.Printf("monolithic %d, modular %d, reduction %.0f%%\n",
		m.MonolithicStimulusBits(), m.ModularStimulusBits(), m.Reduction()*100)
	// Output:
	// monolithic 20000, modular 15000, reduction 25%
}

// Equation 5's isolation cost for a hierarchical core (p34392's Core 18).
func ExampleModule_ISOCost() {
	core18 := &repro.Module{
		Name:     "Core18",
		Params:   repro.Params{Inputs: 175, Outputs: 212},
		Children: []*repro.Module{{Name: "Core19", Params: repro.Params{Inputs: 62, Outputs: 25}}},
	}
	fmt.Println(core18.ISOCost())
	// Output:
	// 474
}

// Building a custom SOC profile and reading the TDV comparison.
func ExampleSOC() {
	top := &repro.Module{
		Name:                  "Top",
		Params:                repro.Params{Inputs: 10, Outputs: 10},
		PortsTesterAccessible: true,
		Children: []*repro.Module{
			{Name: "easy", Params: repro.Params{Inputs: 8, Outputs: 8, ScanCells: 500, Patterns: 100}},
			{Name: "hard", Params: repro.Params{Inputs: 8, Outputs: 8, ScanCells: 500, Patterns: 1000}},
		},
	}
	s := &repro.SOC{Name: "demo", Top: top}
	r := s.Analyze()
	fmt.Printf("modular vs optimistic monolithic: %+.0f%%\n", r.ReductionVsOpt*100)
	// Output:
	// modular vs optimistic monolithic: -45%
}

// Wrapper chain design and test time for a wrapped core.
func ExampleDesignWrapperChains() {
	core := repro.CoreTest{
		Name: "s5378", Inputs: 35, Outputs: 49,
		Chains: []int{45, 45, 45, 44}, Patterns: 244,
	}
	wc, err := repro.DesignWrapperChains(core, 8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("depth %d/%d, test time %d cycles\n",
		wc.MaxIn(), wc.MaxOut(), repro.CoreTestTime(core, wc))
	// Output:
	// depth 45/45, test time 11269 cycles
}
