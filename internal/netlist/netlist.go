// Package netlist models gate-level circuits in the style of the ISCAS'89
// benchmark suite: primary inputs and outputs, combinational gates, and D
// flip-flops. It provides the structural substrate for logic simulation,
// fault modelling and ATPG: construction, validation, levelization
// (topological ordering of the combinational logic), fan-out computation and
// logic-cone extraction.
//
// The full-scan interpretation used throughout the library treats every DFF
// as both a pseudo primary input (its output pin, loaded through the scan
// chain) and a pseudo primary output (its data input pin, observed through
// the scan chain). See package scan for the explicit scan view.
package netlist

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/logic"
)

// GateType identifies the logic function of a gate.
type GateType uint8

// Gate types. Input gates have no fanin; DFF gates have exactly one fanin
// (the data input). Const0/Const1 are tie-off cells occasionally useful when
// stitching cores together.
const (
	Input GateType = iota
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	DFF
	Const0
	Const1
	numGateTypes
)

// Func is the base function of a gate: what it computes before its output
// inversion. NOT is an inverted BUF, NAND an inverted AND, CONST1 an
// inverted CONST (constant 0). Every production reader of gate semantics —
// the compiled simulator, the CNF encoder, fault collapsing, PODEM and
// SCOAP — works on (Func, inversion) pairs from the gate table below.
type Func uint8

const (
	FuncSource Func = iota // Input or DFF output: a stimulus value source
	FuncBuf                // identity of the single fanin
	FuncAnd                // AND over the fanins
	FuncOr                 // OR over the fanins
	FuncXor                // XOR (parity) over the fanins
	FuncConst              // constant 0, no fanin
)

// The gate table. Each gate type has its base function, its output
// inversion and its fanin bounds (max -1: unbounded); each base function
// has its controlling value c, the input value that alone decides the
// output: 0 for the AND family, 1 for the OR family, X where no single
// input does. A gate of type t with one input at c outputs c⊕i, where
// i = t.Inverted().
var gateTable = [numGateTypes]struct {
	name               string
	fn                 Func
	inv                bool
	minFanin, maxFanin int8
}{
	Input:  {"INPUT", FuncSource, false, 0, 0},
	Buf:    {"BUF", FuncBuf, false, 1, 1},
	Not:    {"NOT", FuncBuf, true, 1, 1},
	And:    {"AND", FuncAnd, false, 2, -1},
	Nand:   {"NAND", FuncAnd, true, 2, -1},
	Or:     {"OR", FuncOr, false, 2, -1},
	Nor:    {"NOR", FuncOr, true, 2, -1},
	Xor:    {"XOR", FuncXor, false, 2, -1},
	Xnor:   {"XNOR", FuncXor, true, 2, -1},
	DFF:    {"DFF", FuncSource, false, 1, 1},
	Const0: {"CONST0", FuncConst, false, 0, 0},
	Const1: {"CONST1", FuncConst, true, 0, 0},
}

var funcTable = [...]struct {
	name string
	ctrl logic.V
}{
	FuncSource: {"SOURCE", logic.X},
	FuncBuf:    {"BUF", logic.X},
	FuncAnd:    {"AND", logic.Zero},
	FuncOr:     {"OR", logic.One},
	FuncXor:    {"XOR", logic.X},
	FuncConst:  {"CONST", logic.X},
}

// String returns the canonical upper-case name of t.
func (t GateType) String() string {
	if t.Valid() {
		return gateTable[t].name
	}
	return fmt.Sprintf("GateType(%d)", uint8(t))
}

// Valid reports whether t is a defined gate type.
func (t GateType) Valid() bool { return t < numGateTypes }

// Combinational reports whether t is an evaluating combinational gate
// (everything except Input and DFF).
func (t GateType) Combinational() bool {
	return t.Valid() && t.Func() != FuncSource
}

// Func returns the base function of t.
func (t GateType) Func() Func { return gateTable[t].fn }

// Inverted reports whether t inverts the output of its base function.
func (t GateType) Inverted() bool { return gateTable[t].inv }

// Controlling returns the controlling value of t's base function (0 for
// AND/NAND, 1 for OR/NOR), or X when no single input decides the output.
func (t GateType) Controlling() logic.V { return t.Func().Controlling() }

// MinFanin returns the minimum legal fanin count for t.
func (t GateType) MinFanin() int { return int(gateTable[t].minFanin) }

// MaxFanin returns the maximum legal fanin count for t, or -1 for unbounded.
func (t GateType) MaxFanin() int { return int(gateTable[t].maxFanin) }

// String returns the canonical upper-case name of f.
func (f Func) String() string {
	if int(f) < len(funcTable) {
		return funcTable[f].name
	}
	return fmt.Sprintf("Func(%d)", uint8(f))
}

// Controlling returns the controlling value of f: the input value that on
// any one input decides the output (0 for AND, 1 for OR), or X when f has
// none (BUF and XOR propagate every input value; sources and constants
// have no inputs).
func (f Func) Controlling() logic.V { return funcTable[f].ctrl }

// GateID indexes a gate within its circuit.
type GateID int32

// InvalidGate is the sentinel for "no gate".
const InvalidGate GateID = -1

// Gate is one node of the netlist. Its output net carries the gate's Name;
// Fanin lists the gates driving its inputs, in pin order.
type Gate struct {
	ID    GateID
	Type  GateType
	Name  string
	Fanin []GateID
}

// Circuit is a gate-level netlist. Construct with New, add gates with
// AddGate/MustAddGate, mark primary outputs with MarkOutput, then call
// Finalize before using any analysis method.
type Circuit struct {
	Name string

	gates    []Gate
	byName   map[string]GateID // made by the first Lookup; AddGate looks up first
	nameOnce sync.Once
	inputs   []GateID // primary inputs, in insertion order
	outputs  []GateID // gates whose output nets are primary outputs
	dffs     []GateID // flip-flops, in insertion order

	finalized bool
	fanoutOff []int32  // gate id's consumers are fanoutTo[fanoutOff[id]:fanoutOff[id+1]]
	fanoutTo  []GateID // every gate's consumers, in ID order, back to back
	levels    []int32  // per-gate level; Input/DFF = 0
	order     []GateID // combinational gates in topological order
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name}
}

// AddGate appends a gate driving the net called name. Fanin gates must
// already exist. It returns an error for duplicate names, bad fanin counts,
// or references to unknown gates.
func (c *Circuit) AddGate(name string, t GateType, fanin ...GateID) (GateID, error) {
	if c.finalized {
		return InvalidGate, fmt.Errorf("netlist: circuit %q is finalized", c.Name)
	}
	switch _, dup := c.Lookup(name); {
	case name == "":
		return InvalidGate, fmt.Errorf("netlist: empty gate name")
	case !t.Valid():
		return InvalidGate, fmt.Errorf("netlist: invalid gate type %d", t)
	case dup:
		return InvalidGate, fmt.Errorf("netlist: duplicate net name %q", name)
	default:
		if msg := arity(name, t, len(fanin)); msg != "" {
			return InvalidGate, errors.New("netlist: " + msg)
		}
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(c.gates) {
			return InvalidGate, fmt.Errorf("netlist: gate %q references unknown fanin %d", name, f)
		}
	}
	id := c.add(name, t, append([]GateID(nil), fanin...))
	c.byName[name] = id
	return id, nil
}

// arity returns why a gate of type t with n fanin driving the net called
// name has a fanin count its type does not allow, or "".
func arity(name string, t GateType, n int) string {
	switch {
	case n < t.MinFanin():
		return fmt.Sprintf("gate %q (%v) needs at least %d fanin, got %d", name, t, t.MinFanin(), n)
	case t.MaxFanin() >= 0 && n > t.MaxFanin():
		return fmt.Sprintf("gate %q (%v) allows at most %d fanin, got %d", name, t, t.MaxFanin(), n)
	}
	return ""
}

// add appends a checked gate, keeping fanin as its Fanin; the caller
// indexes its name.
func (c *Circuit) add(name string, t GateType, fanin []GateID) GateID {
	id := GateID(len(c.gates))
	c.gates = append(c.gates, Gate{ID: id, Type: t, Name: name, Fanin: fanin})
	switch t {
	case Input:
		c.inputs = append(c.inputs, id)
	case DFF:
		c.dffs = append(c.dffs, id)
	}
	return id
}

// MustAddGate is AddGate but panics on error; it is intended for
// programmatic circuit builders whose inputs are known-correct.
func (c *Circuit) MustAddGate(name string, t GateType, fanin ...GateID) GateID {
	id, err := c.AddGate(name, t, fanin...)
	if err != nil {
		panic(err)
	}
	return id
}

// MarkOutput declares the net driven by id to be a primary output.
// Marking the same gate twice is an error.
func (c *Circuit) MarkOutput(id GateID) error {
	if c.finalized {
		return fmt.Errorf("netlist: circuit %q is finalized", c.Name)
	}
	if id < 0 || int(id) >= len(c.gates) {
		return fmt.Errorf("netlist: MarkOutput of unknown gate %d", id)
	}
	if slices.Contains(c.outputs, id) {
		return fmt.Errorf("netlist: gate %q already marked as output", c.gates[id].Name)
	}
	c.outputs = append(c.outputs, id)
	return nil
}

// Finalize freezes the circuit, computes fan-out lists, checks for
// combinational cycles and levelizes the combinational logic. A circuit must
// be finalized before simulation or analysis. Finalize is idempotent.
func (c *Circuit) Finalize() error {
	if c.finalized {
		return nil
	}
	n := len(c.gates)
	c.fanoutOff, c.fanoutTo = invert(n, func(id int) []GateID { return c.gates[id].Fanin })

	// Levelize with Kahn's algorithm over the combinational graph.
	// DFF and Input gates are sources (level 0); DFF fanin edges are cut:
	// a DFF consumes its fanin but does not propagate level through it.
	indeg := make([]int32, n)
	want := 0 // non-source gates, each of which must be ordered once
	for _, g := range c.gates {
		if g.Type == Input || g.Type == DFF {
			continue
		}
		indeg[g.ID] = int32(len(g.Fanin))
		want++
	}
	c.levels = make([]int32, n)
	queue := make([]GateID, 0, n)
	for _, g := range c.gates {
		if g.Type == Input || g.Type == DFF || indeg[g.ID] == 0 {
			queue = append(queue, g.ID)
		}
	}
	c.order = make([]GateID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		g := &c.gates[id]
		if g.Type.Combinational() {
			c.order = append(c.order, id)
		}
		for _, s := range c.fanout(id) {
			succ := &c.gates[s]
			if succ.Type == Input || succ.Type == DFF {
				continue // edge into a DFF is a cycle-cut boundary
			}
			c.levels[s] = max(c.levels[s], c.levels[id]+1)
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(c.order) != want {
		return fmt.Errorf("netlist: circuit %q has a combinational cycle (%d of %d gates ordered)",
			c.Name, len(c.order), want)
	}
	c.finalized = true
	return nil
}

// invert turns the in-lists of n nodes into out-lists in CSR form: the
// nodes whose in-lists hold d are to[off[d]:off[d+1]], ascending (twice
// if d is in a list twice). Negative entries are skipped.
func invert[T ~int32](n int, in func(k int) []T) (off []int32, to []T) {
	off = make([]int32, n+1)
	for k := 0; k < n; k++ {
		for _, d := range in(k) {
			if d >= 0 {
				off[d]++
			}
		}
	}
	for k := 1; k < n; k++ {
		off[k] += off[k-1] // the end of node k's range, until the fill
	}
	to = make([]T, off[max(n-1, 0)])
	for k := n - 1; k >= 0; k-- {
		ds := in(k)
		for j := len(ds) - 1; j >= 0; j-- {
			if d := ds[j]; d >= 0 {
				off[d]--
				to[off[d]] = T(k)
			}
		}
	}
	off[n] = int32(len(to))
	return off, to
}

// Finalized reports whether Finalize has completed successfully.
func (c *Circuit) Finalized() bool { return c.finalized }

// NumGates returns the total number of gates (including inputs and DFFs).
func (c *Circuit) NumGates() int { return len(c.gates) }

// Gate returns the gate with the given id. The returned pointer is valid
// until the next AddGate call.
func (c *Circuit) Gate(id GateID) *Gate { return &c.gates[id] }

// Lookup returns the gate driving the net called name, if any. Concurrent
// calls are safe on a finalized circuit.
func (c *Circuit) Lookup(name string) (GateID, bool) {
	c.nameOnce.Do(func() {
		c.byName = make(map[string]GateID, len(c.gates))
		for i := range c.gates {
			c.byName[c.gates[i].Name] = GateID(i)
		}
	})
	id, ok := c.byName[name]
	return id, ok
}

// Inputs returns the primary inputs in declaration order.
// The caller must not modify the returned slice.
func (c *Circuit) Inputs() []GateID { return c.inputs }

// Outputs returns the primary outputs in declaration order.
func (c *Circuit) Outputs() []GateID { return c.outputs }

// DFFs returns the flip-flops in declaration order.
func (c *Circuit) DFFs() []GateID { return c.dffs }

// Fanout returns the gates driven by id. Finalize must have been called.
func (c *Circuit) Fanout(id GateID) []GateID {
	c.mustBeFinalized("Fanout")
	return c.fanout(id)
}

func (c *Circuit) fanout(id GateID) []GateID {
	lo, hi := c.fanoutOff[id], c.fanoutOff[id+1]
	return c.fanoutTo[lo:hi:hi]
}

// Level returns the combinational level of id (Inputs and DFFs are 0).
func (c *Circuit) Level(id GateID) int {
	c.mustBeFinalized("Level")
	return int(c.levels[id])
}

// TopoOrder returns the combinational gates in topological (levelized)
// evaluation order. Inputs and DFFs are excluded — they are value sources.
func (c *Circuit) TopoOrder() []GateID {
	c.mustBeFinalized("TopoOrder")
	return c.order
}

// Depth returns the maximum combinational level in the circuit.
func (c *Circuit) Depth() int {
	c.mustBeFinalized("Depth")
	d := int32(0)
	for _, l := range c.levels {
		d = max(d, l)
	}
	return int(d)
}

func (c *Circuit) mustBeFinalized(op string) {
	if !c.finalized {
		panic(fmt.Sprintf("netlist: %s called on non-finalized circuit %q", op, c.Name))
	}
}

// PseudoInputs returns the full-scan controllable points: primary inputs
// followed by DFF outputs, in declaration order. This is the stimulus frame
// used by simulation and ATPG.
func (c *Circuit) PseudoInputs() []GateID {
	ids := make([]GateID, 0, len(c.inputs)+len(c.dffs))
	ids = append(ids, c.inputs...)
	ids = append(ids, c.dffs...)
	return ids
}

// PseudoOutputs returns the full-scan observable points: primary outputs
// followed by the gates driving DFF data inputs, in declaration order.
// The same driver may appear more than once if it feeds several DFFs or is
// also a primary output; each occurrence is a distinct observation site.
func (c *Circuit) PseudoOutputs() []GateID {
	ids := make([]GateID, 0, len(c.outputs)+len(c.dffs))
	ids = append(ids, c.outputs...)
	for _, d := range c.dffs {
		ids = append(ids, c.gates[d].Fanin[0])
	}
	return ids
}

// Stats summarises a circuit's structure.
type Stats struct {
	Name    string
	Inputs  int
	Outputs int
	DFFs    int
	Gates   int // combinational gates only
	Depth   int
}

// ComputeStats returns structural statistics; the circuit must be finalized.
func (c *Circuit) ComputeStats() Stats {
	c.mustBeFinalized("ComputeStats")
	return Stats{Name: c.Name, Inputs: len(c.inputs), Outputs: len(c.outputs), DFFs: len(c.dffs),
		Gates: len(c.order), Depth: c.Depth()}
}

// String renders the statistics on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates, depth %d",
		s.Name, s.Inputs, s.Outputs, s.DFFs, s.Gates, s.Depth)
}
