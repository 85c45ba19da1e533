// Package sim provides reference logic simulation over finalized netlist
// circuits. No production code imports it: its five-valued (0, 1, X, D, D̄)
// levelized full-scan Simulator and gate evaluator EvalGate are the
// independent test oracle for the compiled faultsim.Program that ATPG,
// fault simulation and response computation run on, and for the netlist
// gate table that Program, the CNF encoder, fault collapsing, PODEM and
// SCOAP read. EvalGate spells out every gate type on purpose instead of
// reading that table.
//
// The Simulator uses the full-scan convention of package netlist: the
// stimulus frame is PseudoInputs (primary inputs then DFF outputs) and the
// response frame is PseudoOutputs (primary outputs then DFF data inputs).
package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// EvalGate evaluates a single combinational gate over five-valued fanin
// values. It panics on non-combinational gate types.
func EvalGate(t netlist.GateType, in []logic.V) logic.V {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return logic.Not(in[0])
	case netlist.And:
		return logic.AndN(in...)
	case netlist.Nand:
		return logic.Not(logic.AndN(in...))
	case netlist.Or:
		return logic.OrN(in...)
	case netlist.Nor:
		return logic.Not(logic.OrN(in...))
	case netlist.Xor:
		return logic.XorN(in...)
	case netlist.Xnor:
		return logic.Not(logic.XorN(in...))
	case netlist.Const0:
		return logic.Zero
	case netlist.Const1:
		return logic.One
	}
	panic(fmt.Sprintf("sim: EvalGate on non-combinational gate type %v", t))
}

// Simulator is a five-valued levelized simulator over one circuit.
// The zero value is not usable; construct with New.
type Simulator struct {
	c       *netlist.Circuit
	values  []logic.V
	ppis    []netlist.GateID
	ppos    []netlist.GateID
	scratch []logic.V
}

// New returns a simulator for the finalized circuit c.
func New(c *netlist.Circuit) *Simulator {
	if !c.Finalized() {
		panic("sim: circuit not finalized")
	}
	s := &Simulator{
		c:      c,
		values: make([]logic.V, c.NumGates()),
		ppis:   c.PseudoInputs(),
		ppos:   c.PseudoOutputs(),
	}
	s.Reset()
	return s
}

// Circuit returns the circuit being simulated.
func (s *Simulator) Circuit() *netlist.Circuit { return s.c }

// Reset sets every signal to X.
func (s *Simulator) Reset() {
	for i := range s.values {
		s.values[i] = logic.X
	}
}

// Set assigns a value to a source gate (primary input or DFF output).
// Assigning non-source gates is allowed — ATPG uses it for fault injection —
// but the value will be overwritten by Run unless the caller handles it.
func (s *Simulator) Set(id netlist.GateID, v logic.V) { s.values[id] = v }

// Value returns the current value of gate id.
func (s *Simulator) Value(id netlist.GateID) logic.V { return s.values[id] }

// ApplyStimulus assigns a cube over the PseudoInputs frame. The cube length
// must equal the number of pseudo inputs.
func (s *Simulator) ApplyStimulus(c logic.Cube) {
	if len(c) != len(s.ppis) {
		panic(fmt.Sprintf("sim: stimulus length %d != %d pseudo inputs", len(c), len(s.ppis)))
	}
	for i, id := range s.ppis {
		s.values[id] = c[i]
	}
}

// Run evaluates all combinational gates in levelized order.
func (s *Simulator) Run() {
	for _, id := range s.c.TopoOrder() {
		g := s.c.Gate(id)
		if cap(s.scratch) < len(g.Fanin) {
			s.scratch = make([]logic.V, len(g.Fanin))
		}
		in := s.scratch[:len(g.Fanin)]
		for j, f := range g.Fanin {
			in[j] = s.values[f]
		}
		s.values[id] = EvalGate(g.Type, in)
	}
}

// Response returns the current values over the PseudoOutputs frame.
func (s *Simulator) Response() logic.Cube {
	r := make(logic.Cube, len(s.ppos))
	for i, id := range s.ppos {
		r[i] = s.values[id]
	}
	return r
}

// Simulate applies stimulus, runs, and returns the response — the everyday
// single-pattern entry point.
func (s *Simulator) Simulate(stimulus logic.Cube) logic.Cube {
	s.ApplyStimulus(stimulus)
	s.Run()
	return s.Response()
}

// NumPseudoInputs returns the stimulus frame width.
func (s *Simulator) NumPseudoInputs() int { return len(s.ppis) }

// NumPseudoOutputs returns the response frame width.
func (s *Simulator) NumPseudoOutputs() int { return len(s.ppos) }
