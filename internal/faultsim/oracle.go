package faultsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// MaxOracleInputs bounds exhaustive enumeration: AllPatterns refuses wider
// pseudo-input frames, because 2^17 patterns stops being "brute force you
// can afford in a test" territory.
const MaxOracleInputs = 16

// AllPatterns enumerates every fully specified cube over a width-bit
// pseudo-input frame, in ascending binary order: cube k has position j set
// to bit j of k. It panics beyond MaxOracleInputs — the caller should skip
// circuits too wide to brute-force rather than silently subsample.
func AllPatterns(width int) []logic.Cube {
	if width < 0 || width > MaxOracleInputs {
		panic(fmt.Sprintf("faultsim: AllPatterns width %d outside [0, %d]", width, MaxOracleInputs))
	}
	out := make([]logic.Cube, 1<<uint(width))
	for k := range out {
		p := make(logic.Cube, width)
		for j := 0; j < width; j++ {
			p[j] = logic.FromBool(k&(1<<uint(j)) != 0)
		}
		out[k] = p
	}
	return out
}

// Oracle is a brute-force reference fault simulator, deliberately sharing
// no machinery with the bit-parallel Engine or the serial reference beyond
// the gate evaluator: one pattern at a time, plain bools, a full
// faulty-circuit re-evaluation per fault, no epochs, no dropping. It is the
// third, slowest, most obviously-correct implementation that the
// differential tests pit the fast ones against.
type Oracle struct {
	c *netlist.Circuit
}

// NewOracle returns an oracle over the finalized circuit c.
func NewOracle(c *netlist.Circuit) *Oracle {
	if !c.Finalized() {
		panic("faultsim: oracle circuit not finalized")
	}
	return &Oracle{c: c}
}

// noFault marks an eval call with no injection.
var noFault = faults.Fault{Gate: -1}

// eval computes every gate's value for one pattern (X loaded as 0, the
// engine's convention). When inject is a real fault, its effect is applied
// at the site: a stem fault pins the site's value, a branch fault re-reads
// one fanin as the stuck value.
func (o *Oracle) eval(p logic.Cube, inject faults.Fault) []bool {
	vals := make([]bool, o.c.NumGates())
	for i, id := range o.c.PseudoInputs() {
		vals[id] = p[i] == logic.One
	}
	stuck := inject.Stuck == logic.One
	injecting := inject.Gate >= 0
	if injecting && inject.Pin == faults.StemPin {
		// A stem site that is a pseudo input (Input or DFF output) never
		// appears in the combinational topo order; pin it here.
		g := o.c.Gate(inject.Gate)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			vals[inject.Gate] = stuck
		}
	}
	var in []bool
	for _, id := range o.c.TopoOrder() {
		g := o.c.Gate(id)
		if injecting && id == inject.Gate && inject.Pin == faults.StemPin {
			vals[id] = stuck
			continue
		}
		if cap(in) < len(g.Fanin) {
			in = make([]bool, len(g.Fanin))
		}
		in = in[:len(g.Fanin)]
		for j, fin := range g.Fanin {
			in[j] = vals[fin]
		}
		if injecting && id == inject.Gate && inject.Pin != faults.StemPin {
			in[inject.Pin] = stuck
		}
		vals[id] = evalBool(g.Type, in)
	}
	return vals
}

// evalBool is the oracle's own gate evaluator — independent of
// sim.EvalGateWord on purpose.
func evalBool(t netlist.GateType, in []bool) bool {
	switch t {
	case netlist.Buf:
		return in[0]
	case netlist.Not:
		return !in[0]
	case netlist.And, netlist.Nand:
		r := true
		for _, v := range in {
			r = r && v
		}
		if t == netlist.Nand {
			return !r
		}
		return r
	case netlist.Or, netlist.Nor:
		r := false
		for _, v := range in {
			r = r || v
		}
		if t == netlist.Nor {
			return !r
		}
		return r
	case netlist.Xor, netlist.Xnor:
		r := false
		for _, v := range in {
			r = r != v
		}
		if t == netlist.Xnor {
			return !r
		}
		return r
	case netlist.Const0:
		return false
	case netlist.Const1:
		return true
	}
	panic(fmt.Sprintf("faultsim: oracle eval on non-combinational gate type %v", t))
}

// Detects reports whether pattern p detects fault f: any pseudo output of
// the faulty circuit differs from the good circuit.
func (o *Oracle) Detects(p logic.Cube, f faults.Fault) bool {
	good := o.eval(p, noFault)
	g := o.c.Gate(f.Gate)
	if f.Pin != faults.StemPin && g.Type == netlist.DFF {
		// Branch fault on a DFF data pin: the capture is stuck, observed
		// at that flop's response position; detection is the good driver
		// value differing from the stuck value.
		return good[g.Fanin[f.Pin]] != (f.Stuck == logic.One)
	}
	bad := o.eval(p, f)
	for _, id := range o.c.PseudoOutputs() {
		if good[id] != bad[id] {
			return true
		}
	}
	return false
}

// Simulate brute-forces the first-detection table of the pattern set: for
// every fault, the lowest pattern index that detects it (Undetected when
// none does). Semantically identical to Simulate/SimulateWorkers; built
// completely differently.
func (o *Oracle) Simulate(patterns []logic.Cube, flist []faults.Fault) *Result {
	res := &Result{
		Faults:     flist,
		DetectedBy: make([]int, len(flist)),
	}
	for fi, f := range flist {
		res.DetectedBy[fi] = Undetected
		for k, p := range patterns {
			if o.Detects(p, f) {
				res.DetectedBy[fi] = k
				res.NumDetected++
				break
			}
		}
	}
	return res
}
