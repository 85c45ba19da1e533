package sat

import (
	"fmt"

	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// CECResult is the outcome of a combinational equivalence check between a
// source netlist and the PPSFP Program compiled from it.
type CECResult struct {
	// Equivalent reports that every observation-frame position computes
	// the same function in both forms, for every fully specified stimulus.
	Equivalent bool
	// Structural is set when equivalence was discharged without any
	// search: every compiled gate hashed onto the netlist encoding, so
	// the miter is empty by construction. An honest compile always ends
	// here with zero conflicts.
	Structural bool
	// Reason explains a non-equivalent verdict.
	Reason string
	// FramePos is the first differing observation-frame position when a
	// counterexample was found, -1 otherwise.
	FramePos int
	// Counterexample is a stimulus on which the two forms differ (nil
	// when equivalent or when the mismatch is structural, e.g. frame
	// shape).
	Counterexample logic.Cube
	// Conflicts is the solver conflict count spent on the check.
	Conflicts int64
}

// CheckProgram proves (or refutes) that the compiled Program computes the
// same observation-frame functions as the finalized circuit it claims to
// implement. The Program side is encoded purely from its compiled arrays
// (via the faultsim spec surface) — never re-derived from the netlist — so
// the check genuinely covers the compiler.
//
// Both copies share stimulus variables and a structure-hashing encoder: a
// faithful compile collapses gate-for-gate onto the netlist encoding and
// the proof closes structurally, with no search. Any divergence leaves a
// real miter, and the solver either finds a differing stimulus (returned
// as the counterexample) or proves the restructured logic equivalent.
// The verdict, counterexample and conflict count are bit-reproducible.
func CheckProgram(c *netlist.Circuit, p *faultsim.Program) CECResult {
	if !c.Finalized() {
		panic("sat: CheckProgram on non-finalized circuit")
	}
	res := CECResult{FramePos: -1}
	fail := func(format string, args ...any) CECResult {
		res.Reason = fmt.Sprintf(format, args...)
		return res
	}

	if p.NumGates() != c.NumGates() {
		return fail("gate count mismatch: program %d, netlist %d", p.NumGates(), c.NumGates())
	}
	ppis, ppos := c.PseudoInputs(), c.PseudoOutputs()
	if !sameFrame(p.PPIs(), ppis) {
		return fail("pseudo-input frame mismatch")
	}
	if !sameFrame(p.PPOs(), ppos) {
		return fail("pseudo-output frame mismatch")
	}

	cnf := NewCNF()
	enc := NewEncoder(cnf)
	enc.EnableSharing()
	good := enc.Circuit(c, nil)

	// Program copy: sources share the netlist stimulus variables; every
	// compiled gate is encoded from its spec, in the compiled evaluation
	// order. A fanin with no literal yet means the compiled order is not
	// topological — the kernel would read garbage there, so it is a
	// verdict, not a panic.
	plits := make([]Lit, p.NumGates())
	for _, id := range ppis {
		plits[id] = good.Lit(id)
	}
	var ins []Lit
	for _, id := range p.Order() {
		spec := p.Spec(id)
		if spec.Kind == netlist.FuncSource {
			return fail("gate %d: opcode kind %v in evaluation order", id, spec.Kind)
		}
		ins = ins[:0]
		for _, fin := range spec.Fanin {
			if fin < 0 || int(fin) >= len(plits) || plits[fin] == 0 {
				return fail("gate %d: fanin %d not evaluated before use (order not topological)", id, fin)
			}
			ins = append(ins, plits[fin])
		}
		if plits[id] != 0 {
			return fail("gate %d evaluated twice in compiled order", id)
		}
		plits[id] = enc.Gate(spec.Kind, spec.Invert, ins)
	}

	// Miter over the observation frame. Literal-identical pairs can never
	// differ and drop out; a faithful compile drops every pair.
	var diffs []Lit
	diffPos := make([]int, 0)
	for i, id := range ppos {
		a, b := good.Lit(id), plits[id]
		if b == 0 {
			return fail("observation frame position %d (gate %d) never evaluated by compiled order", i, id)
		}
		if a == b {
			continue
		}
		d := cnf.NewVar()
		cnf.Add(d.Neg(), a, b)
		cnf.Add(d.Neg(), a.Neg(), b.Neg())
		diffs = append(diffs, d)
		diffPos = append(diffPos, i)
	}
	if len(diffs) == 0 {
		res.Equivalent = true
		res.Structural = true
		return res
	}
	cnf.Add(diffs...)

	s := NewSolver(cnf)
	if !s.Solve() {
		res.Equivalent = true
		res.Conflicts = s.Conflicts()
		return res
	}
	res.Conflicts = s.Conflicts()
	res.Counterexample = good.InputCube(s)
	for k, d := range diffs {
		if s.ValueOf(d) {
			res.FramePos = diffPos[k]
			break
		}
	}
	res.Reason = fmt.Sprintf("program differs from netlist at observation frame position %d under stimulus %s",
		res.FramePos, res.Counterexample)
	return res
}

func sameFrame(a, b []netlist.GateID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
