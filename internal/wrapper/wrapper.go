// Package wrapper materializes IEEE 1500-style core test wrappers on a
// netlist. Isolate gives every primary input a dedicated input wrapper
// cell and every primary output a dedicated output wrapper cell, both
// modelled as scannable DFFs. The transform demonstrates the paper's claim
// that isolation increases the bits per pattern (each wrapper cell is one
// more scan bit) without changing the core's test pattern count;
// AccountBits counts those bits on the wrapped circuit. The isolation
// cost formula itself (ISOCOST, the paper's Equation 5) is
// core.Module.ISOCost.
package wrapper

import (
	"fmt"

	"repro/internal/netlist"
)

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
	// Core gate id drives net base+id, named as in the core but for each
	// original input, whose net is its wrapper cell.
	faninName := func(id netlist.GateID) string {
		g := core.Gate(id)
		if g.Type == netlist.Input {
			return g.Name + "__wc"
		}
		return g.Name
	}
	base := b.AddNets(core.NumGates(), func(dst []byte, id int) []byte {
		return append(dst, faninName(netlist.GateID(id))...)
	})
	for _, in := range core.Inputs() {
		name := core.Gate(in).Name
		b.Input(name)
		b.Gate(name+"__wc", netlist.DFF, name)
	}
	b.CopyGates(core, base)
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
