package soc

import (
	"strings"
	"testing"

	"repro/internal/netlist"
)

func TestSOC1ProfileMatchesTable1(t *testing.T) {
	p := SOC1Profile()
	if got := p.TDVModular(); got != 45183 {
		t.Errorf("SOC1 modular TDV = %d, want 45183", got)
	}
	if got := p.TDVMono(); got != 129816 {
		t.Errorf("SOC1 mono TDV = %d, want 129816", got)
	}
	if got := p.TDVMonoOpt(); got != 51085 {
		t.Errorf("SOC1 opt TDV = %d, want 51085", got)
	}
	if len(p.Modules()) != 6 {
		t.Errorf("modules = %d, want 6", len(p.Modules()))
	}
	if !p.Top.PortsTesterAccessible {
		t.Error("top module must be tester accessible")
	}
}

func TestSOC2ProfileMatchesTable2(t *testing.T) {
	p := SOC2Profile()
	if got := p.TDVModular(); got != 1344585 {
		t.Errorf("SOC2 modular TDV = %d, want 1344585", got)
	}
	if got := p.TDVMono(); got != 2986200 {
		t.Errorf("SOC2 mono TDV = %d, want 2986200", got)
	}
	if got := p.TDVMonoOpt(); got != 1428320 {
		t.Errorf("SOC2 opt TDV = %d, want 1428320", got)
	}
}

func TestDescribe(t *testing.T) {
	d := Describe(SOC1Profile())
	for _, want := range []string{"SOC1", "s713", "s953", "s1423", "T_mono=216"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

const coreA = `
INPUT(a)
INPUT(b)
OUTPUT(x)
OUTPUT(y)
f = DFF(x)
x = AND(a, b)
y = XOR(f, a)
`

const coreB = `
INPUT(p)
OUTPUT(q)
g = DFF(q)
q = NOT(p)
`

func mustParse(t *testing.T, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFlattenStructure(t *testing.T) {
	a := mustParse(t, "A", coreA)
	b := mustParse(t, "B", coreB)
	flat, err := Flatten("chip", []*netlist.Circuit{a, b}, FlattenOptions{Seed: 7, InterconnectFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fs := flat.ComputeStats()
	as, bs := a.ComputeStats(), b.ComputeStats()
	// All scan cells survive flattening.
	if fs.DFFs != as.DFFs+bs.DFFs {
		t.Errorf("flattened DFFs = %d, want %d", fs.DFFs, as.DFFs+bs.DFFs)
	}
	// Chip inputs never exceed the sum of core inputs; interconnect
	// replaces some of them.
	if fs.Inputs > as.Inputs+bs.Inputs {
		t.Errorf("chip inputs = %d > core input sum", fs.Inputs)
	}
	// Chip outputs are the unused core outputs.
	if fs.Outputs > as.Outputs+bs.Outputs {
		t.Errorf("chip outputs = %d > core output sum", fs.Outputs)
	}
	// Core nets carry their prefixes.
	if _, ok := flat.Lookup("c0_x"); !ok {
		t.Error("core 0 net c0_x missing")
	}
	if _, ok := flat.Lookup("c1_q"); !ok {
		t.Error("core 1 net c1_q missing")
	}
}

func TestFlattenDeterministic(t *testing.T) {
	a := mustParse(t, "A", coreA)
	b := mustParse(t, "B", coreB)
	opt := FlattenOptions{Seed: 3, InterconnectFraction: 0.7}
	f1, err := Flatten("chip", []*netlist.Circuit{a, b}, opt)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Flatten("chip", []*netlist.Circuit{a, b}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if netlist.BenchString(f1) != netlist.BenchString(f2) {
		t.Error("Flatten not deterministic")
	}
}

func TestFlattenNoInterconnect(t *testing.T) {
	a := mustParse(t, "A", coreA)
	b := mustParse(t, "B", coreB)
	flat, err := Flatten("chip", []*netlist.Circuit{a, b}, FlattenOptions{Seed: 1, InterconnectFraction: 0})
	if err != nil {
		t.Fatal(err)
	}
	fs := flat.ComputeStats()
	if fs.Inputs != 3 { // all core inputs become pins
		t.Errorf("inputs = %d, want 3", fs.Inputs)
	}
	if fs.Outputs != 3 { // all core outputs become pins
		t.Errorf("outputs = %d, want 3", fs.Outputs)
	}
}

func TestFlattenErrors(t *testing.T) {
	if _, err := Flatten("x", nil, FlattenOptions{}); err == nil {
		t.Error("empty core list accepted")
	}
	a := mustParse(t, "A", coreA)
	if _, err := Flatten("x", []*netlist.Circuit{a}, FlattenOptions{InterconnectFraction: 1.5}); err == nil {
		t.Error("bad fraction accepted")
	}
}

func TestFlattenSingleCore(t *testing.T) {
	a := mustParse(t, "A", coreA)
	flat, err := Flatten("chip", []*netlist.Circuit{a}, FlattenOptions{Seed: 1, InterconnectFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// With one core there is nothing to interconnect: all ports become pins.
	fs := flat.ComputeStats()
	if fs.Inputs != 2 || fs.Outputs != 2 {
		t.Errorf("single-core flatten: %d in, %d out", fs.Inputs, fs.Outputs)
	}
}
