package wrapper

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/netlist"
)

const coreBench = `
INPUT(A)
INPUT(B)
OUTPUT(Y)
OUTPUT(Z)
F1 = DFF(N1)
N1 = XOR(A, F1)
N2 = AND(N1, B)
Y = OR(N2, F1)
Z = NOT(N2)
`

func TestIsolateStructure(t *testing.T) {
	core, err := netlist.ParseBenchString("core", coreBench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Isolate(core)
	if err != nil {
		t.Fatal(err)
	}
	w := res.Wrapped
	ws := w.ComputeStats()
	cs := core.ComputeStats()
	// Same functional ports.
	if ws.Inputs != cs.Inputs || ws.Outputs != cs.Outputs {
		t.Errorf("port counts changed: %d/%d vs %d/%d", ws.Inputs, ws.Outputs, cs.Inputs, cs.Outputs)
	}
	// Scan cells grew by exactly I+O wrapper cells.
	if ws.DFFs != cs.DFFs+cs.Inputs+cs.Outputs {
		t.Errorf("wrapped DFFs = %d, want %d", ws.DFFs, cs.DFFs+cs.Inputs+cs.Outputs)
	}
	if len(res.InputCells) != cs.Inputs || len(res.OutputCells) != cs.Outputs {
		t.Errorf("cell lists: %d/%d", len(res.InputCells), len(res.OutputCells))
	}
	for _, id := range res.InputCells {
		if w.Gate(id).Type != netlist.DFF {
			t.Error("input cell is not a DFF")
		}
	}
}

func TestIsolatePreservesPatternCount(t *testing.T) {
	// The paper's key claim about isolation: wrapper cells add bits per
	// pattern but do not change the core's test pattern count, because the
	// combinational logic between controllable and observable points is
	// unchanged.
	core, err := netlist.ParseBenchString("core", coreBench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Isolate(core)
	if err != nil {
		t.Fatal(err)
	}
	opts := atpg.Options{BacktrackLimit: 100, RandomPatterns: 0, Compact: true, Seed: 1}
	bare := atpg.Generate(core, opts)
	wrapped := atpg.Generate(res.Wrapped, opts)
	if bare.Coverage != 1 || wrapped.Coverage < bare.Coverage-0.06 {
		t.Fatalf("coverage: bare %.3f wrapped %.3f", bare.Coverage, wrapped.Coverage)
	}
	// Pattern counts must be very close (the wrapped circuit has a few
	// extra buffer/cell faults but the same cone structure).
	if d := wrapped.PatternCount() - bare.PatternCount(); d < -2 || d > 2 {
		t.Errorf("pattern counts diverged: bare %d, wrapped %d", bare.PatternCount(), wrapped.PatternCount())
	}
}

func TestIsolateRequiresFinalized(t *testing.T) {
	c := netlist.New("raw")
	c.MustAddGate("a", netlist.Input)
	if _, err := Isolate(c); err == nil {
		t.Error("Isolate accepted non-finalized circuit")
	}
}

func TestIsolateRoundTripsThroughBench(t *testing.T) {
	core, err := netlist.ParseBenchString("core", coreBench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Isolate(core)
	if err != nil {
		t.Fatal(err)
	}
	text := netlist.BenchString(res.Wrapped)
	if _, err := netlist.ParseBenchString("re", text); err != nil {
		t.Fatalf("wrapped netlist does not reparse: %v", err)
	}
}

func TestAccountBitsMatchesEquation(t *testing.T) {
	core, err := netlist.ParseBenchString("core", coreBench)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Isolate(core)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AccountBits(res)
	if err != nil {
		t.Fatal(err)
	}
	st := core.ComputeStats()
	// 2S + I + O for the original core: S=1, I=2, O=2 -> 6.
	want := int64(2*st.DFFs + st.Inputs + st.Outputs)
	if b.Total() != want {
		t.Errorf("wrapper-aware bits = %d, want %d (2S+I+O)", b.Total(), want)
	}
	if b.ScanStimulus != int64(st.DFFs) || b.InputStimulus != int64(st.Inputs) || b.OutputResponse != int64(st.Outputs) {
		t.Errorf("breakdown wrong: %+v", b)
	}
}

func TestAccountBitsErrors(t *testing.T) {
	if _, err := AccountBits(nil); err == nil {
		t.Error("nil result accepted")
	}
	core, _ := netlist.ParseBenchString("core", coreBench)
	res, _ := Isolate(core)
	// Corrupt: duplicate a cell across the lists.
	res.OutputCells = append(res.OutputCells, res.InputCells[0])
	if _, err := AccountBits(res); err == nil {
		t.Error("duplicated cell accepted")
	}
}
