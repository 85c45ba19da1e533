package faultsim

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// SerialSimulate is the pattern-at-a-time serial reference fault simulator:
// one pattern simulated at a time, one full faulty-circuit topological
// re-evaluation per still-undetected fault, plain bools throughout — no
// word packing, no compiled program, no cone pruning. Fault dropping keeps
// its semantics identical to Simulate: DetectedBy[i] is the first pattern
// index detecting Faults[i], or Undetected.
//
// It is the differential oracle the tests hold the PPSFP kernel, ATPG and
// the SAT miter to, exhaustively over AllPatterns on narrow circuits, and
// the honest serial baseline that BenchmarkKernelVsSerial measures the
// PPSFP kernel against.
func SerialSimulate(c *netlist.Circuit, patterns []logic.Cube, flist []faults.Fault) *Result {
	if !c.Finalized() {
		panic("faultsim: SerialSimulate on non-finalized circuit")
	}
	res := &Result{
		Faults:     flist,
		DetectedBy: make([]int, len(flist)),
	}
	remaining := make([]int, len(flist))
	for i := range flist {
		res.DetectedBy[i] = Undetected
		remaining[i] = i
	}
	s := newSerialRef(c)
	for k, p := range patterns {
		if len(remaining) == 0 {
			break
		}
		s.eval(p, noFault, s.good)
		keep := remaining[:0]
		for _, fi := range remaining {
			if s.detects(p, flist[fi]) {
				res.DetectedBy[fi] = k
				res.NumDetected++
			} else {
				keep = append(keep, fi)
			}
		}
		remaining = keep
	}
	return res
}

// SerialDetects reports whether the single pattern detects the fault: one
// good and one faulty serial evaluation, X bits loaded as 0 as in
// Engine.Apply. It is the per-pattern form of SerialSimulate, the reference
// the tests hold Engine.QueuedDetects and the SAT miter's cubes to.
func SerialDetects(c *netlist.Circuit, pattern logic.Cube, f faults.Fault) bool {
	s := newSerialRef(c)
	s.eval(pattern, noFault, s.good)
	return s.detects(pattern, f)
}

// serialRef is the scratch state of the serial reference: the circuit's
// pseudo-input and pseudo-output frames, looked up once, and one value per
// gate for the good and the faulty circuit.
type serialRef struct {
	c          *netlist.Circuit
	ppis, ppos []netlist.GateID
	good, bad  []bool
	in         []bool // fanin values of the gate being evaluated
}

func newSerialRef(c *netlist.Circuit) *serialRef {
	return &serialRef{
		c:    c,
		ppis: c.PseudoInputs(),
		ppos: c.PseudoOutputs(),
		good: make([]bool, c.NumGates()),
		bad:  make([]bool, c.NumGates()),
	}
}

// eval evaluates every gate of the circuit for one pattern (X loaded as 0)
// into vals, injecting the fault when it is a real one.
func (s *serialRef) eval(p logic.Cube, inject faults.Fault, vals []bool) {
	c := s.c
	if len(p) != len(s.ppis) {
		panic("faultsim: pattern width mismatch")
	}
	clear(vals)
	for i, id := range s.ppis {
		vals[id] = p[i] == logic.One
	}
	stuck := inject.Stuck == logic.One
	injecting := inject.Gate >= 0
	if injecting && inject.Pin == faults.StemPin {
		g := c.Gate(inject.Gate)
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			vals[inject.Gate] = stuck
		}
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if injecting && id == inject.Gate && inject.Pin == faults.StemPin {
			vals[id] = stuck
			continue
		}
		if cap(s.in) < len(g.Fanin) {
			s.in = make([]bool, len(g.Fanin))
		}
		in := s.in[:len(g.Fanin)]
		for j, fin := range g.Fanin {
			in[j] = vals[fin]
		}
		if injecting && id == inject.Gate && inject.Pin != faults.StemPin {
			in[inject.Pin] = stuck
		}
		vals[id] = evalBool(g.Type, in)
	}
}

// detects reports whether pattern p detects fault f, given the good-circuit
// values already evaluated for p into s.good. The faulty circuit is fully
// re-evaluated into s.bad.
func (s *serialRef) detects(p logic.Cube, f faults.Fault) bool {
	g := s.c.Gate(f.Gate)
	if f.Pin != faults.StemPin && g.Type == netlist.DFF {
		// Branch fault on a DFF data pin: the capture is stuck; detection
		// is the good driver value differing from the stuck value.
		return s.good[g.Fanin[f.Pin]] != (f.Stuck == logic.One)
	}
	s.eval(p, f, s.bad)
	for _, id := range s.ppos {
		if s.good[id] != s.bad[id] {
			return true
		}
	}
	return false
}

// noFault marks an eval call with no injection.
var noFault = faults.Fault{Gate: -1}

// evalBool is the serial reference's own two-valued gate evaluator —
// independent of the netlist gate table, the compiled Program and
// sim.EvalGate on purpose. It stays two-valued for speed: cmd/socbench's
// fault_grade verify pass runs SerialSimulate, and the five-valued
// sim.EvalGate in its place ran 2.6–4.2× slower there.
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
	panic(fmt.Sprintf("faultsim: serial eval on non-combinational gate type %v", t))
}

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
