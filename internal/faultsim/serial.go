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
// It is the differential oracle for circuits whose input frame is too wide
// for the exhaustive Oracle, and the honest serial baseline that
// cmd/benchjson measures the PPSFP kernel against.
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
	good := make([]bool, c.NumGates())
	bad := make([]bool, c.NumGates())
	for k, p := range patterns {
		if len(remaining) == 0 {
			break
		}
		serialEval(c, p, noFault, good)
		keep := remaining[:0]
		for _, fi := range remaining {
			if serialPatternDetects(c, p, good, bad, flist[fi]) {
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

// serialEval evaluates every gate of the circuit for one pattern (X loaded
// as 0) into vals, injecting the fault when it is a real one.
func serialEval(c *netlist.Circuit, p logic.Cube, inject faults.Fault, vals []bool) {
	ppis := c.PseudoInputs()
	if len(p) != len(ppis) {
		panic("faultsim: pattern width mismatch")
	}
	for i := range vals {
		vals[i] = false
	}
	for i, id := range ppis {
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
	var in []bool
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
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
}

// serialPatternDetects reports whether pattern p detects fault f, given the
// good-circuit values already evaluated for p. The faulty circuit is fully
// re-evaluated into bad (caller-owned scratch).
func serialPatternDetects(c *netlist.Circuit, p logic.Cube, good, bad []bool, f faults.Fault) bool {
	g := c.Gate(f.Gate)
	if f.Pin != faults.StemPin && g.Type == netlist.DFF {
		// Branch fault on a DFF data pin: the capture is stuck; detection
		// is the good driver value differing from the stuck value.
		return good[g.Fanin[f.Pin]] != (f.Stuck == logic.One)
	}
	serialEval(c, p, f, bad)
	for _, id := range c.PseudoOutputs() {
		if good[id] != bad[id] {
			return true
		}
	}
	return false
}

// SerialDetects reports whether the single fully specified pattern detects
// the fault. It is an independent, deliberately simple implementation
// (recursive evaluation with memoization, one pattern at a time) used as the
// reference oracle for the bit-parallel engine in tests, and by the ATPG to
// confirm generated patterns. X bits in the pattern are treated as 0,
// matching Engine.Apply.
func SerialDetects(c *netlist.Circuit, pattern logic.Cube, f faults.Fault) bool {
	return len(SerialFailingOutputs(c, pattern, f)) > 0
}

// SerialFailingOutputs returns the pseudo-output frame positions at which
// the faulty machine differs from the good one for the pattern (empty when
// the pattern does not detect the fault). Package diag builds fault
// dictionaries from it.
func SerialFailingOutputs(c *netlist.Circuit, pattern logic.Cube, f faults.Fault) []int {
	ppis := c.PseudoInputs()
	if len(pattern) != len(ppis) {
		panic("faultsim: pattern width mismatch")
	}
	n := c.NumGates()
	in := make([]bool, n)
	for i, id := range ppis {
		in[id] = pattern[i] == logic.One
	}

	stuck := f.Stuck == logic.One

	// Memo states per gate: 0 not yet evaluated, else memoFalse/memoTrue.
	const memoFalse, memoTrue = 1, 2
	var evalGood func(id netlist.GateID) bool
	var evalBad func(id netlist.GateID) bool
	memo := make([]uint8, 2*n)
	goodMemo, badMemo := memo[:n], memo[n:]

	// evalGate folds the gate's boolean function over its pins, reading
	// pin faultyPin as the stuck value.
	evalGate := func(g *netlist.Gate, eval func(netlist.GateID) bool, faultyPin int) bool {
		pin := func(j int) bool {
			if j == faultyPin {
				return stuck
			}
			return eval(g.Fanin[j])
		}
		var v, invert bool
		switch g.Type {
		case netlist.Buf, netlist.Not:
			v, invert = pin(0), g.Type == netlist.Not
		case netlist.And, netlist.Nand:
			v, invert = true, g.Type == netlist.Nand
			for j := range g.Fanin {
				v = pin(j) && v
			}
		case netlist.Or, netlist.Nor:
			invert = g.Type == netlist.Nor
			for j := range g.Fanin {
				v = pin(j) || v
			}
		case netlist.Xor, netlist.Xnor:
			invert = g.Type == netlist.Xnor
			for j := range g.Fanin {
				v = pin(j) != v
			}
		case netlist.Const0:
		case netlist.Const1:
			v = true
		default:
			panic(fmt.Sprintf("faultsim: SerialFailingOutputs evaluated gate type %v", g.Type))
		}
		return v != invert
	}
	memoOf := func(v bool) uint8 {
		if v {
			return memoTrue
		}
		return memoFalse
	}

	evalGood = func(id netlist.GateID) bool {
		if m := goodMemo[id]; m != 0 {
			return m == memoTrue
		}
		g := c.Gate(id)
		var v bool
		if g.Type == netlist.Input || g.Type == netlist.DFF {
			v = in[id]
		} else {
			v = evalGate(g, evalGood, -999)
		}
		goodMemo[id] = memoOf(v)
		return v
	}
	evalBad = func(id netlist.GateID) bool {
		if m := badMemo[id]; m != 0 {
			return m == memoTrue
		}
		g := c.Gate(id)
		var v bool
		switch {
		case f.Pin == faults.StemPin && id == f.Gate:
			v = stuck
		case g.Type == netlist.Input || g.Type == netlist.DFF:
			v = in[id]
		case f.Pin != faults.StemPin && id == f.Gate:
			v = evalGate(g, evalBad, f.Pin)
		default:
			v = evalGate(g, evalBad, -999)
		}
		badMemo[id] = memoOf(v)
		return v
	}

	// A branch fault on a DFF data pin is observed at that DFF's capture
	// frame position.
	if f.Pin != faults.StemPin && c.Gate(f.Gate).Type == netlist.DFF {
		drv := c.Gate(f.Gate).Fanin[f.Pin]
		if evalGood(drv) == stuck {
			return nil
		}
		for i, d := range c.DFFs() {
			if d == f.Gate {
				return []int{len(c.Outputs()) + i}
			}
		}
		return nil
	}

	var fails []int
	for i, id := range c.PseudoOutputs() {
		if evalGood(id) != evalBad(id) {
			fails = append(fails, i)
		}
	}
	return fails
}
