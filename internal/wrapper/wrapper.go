// Package wrapper models IEEE 1500-style core test wrappers: dedicated
// wrapper cells on every core terminal, the InTest/ExTest/Bypass modes used
// for modular and hierarchical SOC testing, and the per-pattern isolation
// data cost those cells impose (the ISOCOST of the paper's Equation 5).
//
// It also provides a structural transform, Isolate, that materializes the
// wrapper on a netlist: every primary input gains a dedicated input wrapper
// cell and every primary output a dedicated output wrapper cell, both
// modelled as scannable DFFs. The transform demonstrates the paper's claim
// that isolation increases the bits per pattern (each wrapper cell is one
// more scan bit) without changing the core's test pattern count.
package wrapper

import (
	"fmt"

	"repro/internal/netlist"
)

// Mode is a wrapper operating mode.
type Mode uint8

const (
	// Functional: wrapper is transparent; the core operates in mission mode.
	Functional Mode = iota
	// InTest: the core itself is under test; input cells apply stimuli,
	// output cells capture responses.
	InTest
	// ExTest: the logic outside the core is under test; output cells apply
	// stimuli to the surroundings, input cells capture responses from it.
	ExTest
	// Bypass: test data passes through without touching the core.
	Bypass
)

// String returns the conventional mode name.
func (m Mode) String() string {
	switch m {
	case Functional:
		return "Functional"
	case InTest:
		return "InTest"
	case ExTest:
		return "ExTest"
	case Bypass:
		return "Bypass"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Spec describes a wrapper around a core with the given terminal counts.
// Every input, output and bidirectional terminal receives one dedicated
// wrapper cell (the paper's pessimistic full-isolation assumption).
type Spec struct {
	Core    string
	Inputs  int
	Outputs int
	Bidirs  int
}

// CellCount returns the number of wrapper cells: one per terminal.
func (s Spec) CellCount() int { return s.Inputs + s.Outputs + s.Bidirs }

// DataBitsPerPattern returns the per-pattern test data contributed by the
// wrapper cells in InTest mode: a stimulus bit per input cell, a response
// bit per output cell, and both for each bidirectional cell. This is the
// core's own I + O + 2B term of Equation 5.
func (s Spec) DataBitsPerPattern() int { return s.Inputs + s.Outputs + 2*s.Bidirs }

// ChildDataBitsPerPattern returns the per-pattern data for testing a parent
// core whose child cores sit in ExTest: the child terminals must be
// controlled/observed through the child wrapper cells, contributing
// I + O + 2B per child (the summation term of Equation 5).
func ChildDataBitsPerPattern(children []Spec) int {
	n := 0
	for _, ch := range children {
		n += ch.DataBitsPerPattern()
	}
	return n
}

// ISOCost computes the paper's Equation 5 for a parent core with the given
// direct children:
//
//	ISOCOST_P = I_P + O_P + 2B_P + Σ_{C ∈ Child(P)} (I_C + O_C + 2B_C)
func ISOCost(parent Spec, children []Spec) int {
	return parent.DataBitsPerPattern() + ChildDataBitsPerPattern(children)
}

// IsolationResult describes the outcome of the structural Isolate transform.
type IsolationResult struct {
	// Wrapped is the isolated circuit: original primary inputs are now
	// driven by input wrapper cells (DFFs), and every original primary
	// output is captured by an output wrapper cell (DFF).
	Wrapped *netlist.Circuit
	// InputCells and OutputCells list the wrapper-cell DFF IDs in the
	// wrapped circuit, in original port order.
	InputCells  []netlist.GateID
	OutputCells []netlist.GateID
}

// Isolate builds the structurally wrapped version of a core netlist.
//
// For each original primary input P, the wrapped circuit has a functional
// input "P" and a wrapper cell DFF "P__wc" feeding the core logic (the
// functional input remains connected to the cell's data input, modelling
// the ExTest capture path). For each original primary output Q, a wrapper
// cell DFF "Q__wc" captures the core's value; the chip-level output is the
// cell's content.
//
// Under the full-scan interpretation the wrapper cells are scan cells, so
// the wrapped core has S + I + O scan cells — exactly the bit accounting of
// the paper — while the core logic between controllable and observable
// points is unchanged, so ATPG pattern counts are preserved.
// Isolate builds the wrapped netlist directly through a netlist.Builder,
// which resolves the forward references that DFF-based wrapper cells
// introduce.
func Isolate(core *netlist.Circuit) (*IsolationResult, error) {
	if !core.Finalized() {
		return nil, fmt.Errorf("wrapper: core %q not finalized", core.Name)
	}
	b := netlist.NewBuilder(core.Name + ".wrapped")
	for _, in := range core.Inputs() {
		name := core.Gate(in).Name
		b.Input(name)
		b.Gate(name+"__wc", netlist.DFF, name)
	}
	// Core gates: rename each original input reference to its wrapper cell.
	faninName := func(id netlist.GateID) string {
		g := core.Gate(id)
		if g.Type == netlist.Input {
			return g.Name + "__wc"
		}
		return g.Name
	}
	b.CopyGates(core, faninName)
	// Output wrapper cells and chip outputs.
	for _, out := range core.Outputs() {
		name := core.Gate(out).Name
		b.Gate(name+"__wc", netlist.DFF, faninName(out))
		b.Gate(name+"__pin", netlist.Buf, name+"__wc")
		b.Output(name + "__pin")
	}

	wrapped, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("wrapper: building wrapped netlist: %w", err)
	}
	res := &IsolationResult{Wrapped: wrapped}
	for _, in := range core.Inputs() {
		id, _ := wrapped.Lookup(core.Gate(in).Name + "__wc")
		res.InputCells = append(res.InputCells, id)
	}
	for _, out := range core.Outputs() {
		id, _ := wrapped.Lookup(core.Gate(out).Name + "__wc")
		res.OutputCells = append(res.OutputCells, id)
	}
	return res, nil
}
