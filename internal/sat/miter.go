package sat

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Proof is the verdict of ProveFault on one stuck-at fault.
type Proof struct {
	// Redundant reports that no fully specified stimulus detects the
	// fault: the good-vs-faulty miter is unsatisfiable.
	Redundant bool
	// Cube is a detecting stimulus over the pseudo-input frame when the
	// fault is testable (nil when Redundant). Positions outside the
	// fault's support cone are X; the engine's X-as-0 fill makes the
	// fully specified version detect the fault too.
	Cube logic.Cube
	// Conflicts is the conflict count of the proof's fixed-order DPLL
	// tree (see Solver): the same count as a search without the memo,
	// not a measure of the work done.
	Conflicts int64
	// Decisions, Propagations and MemoHits are the solver's work
	// counters for this proof (see Solver.Decisions and friends).
	Decisions    int64
	Propagations int64
	MemoHits     int64
}

// ProveFault decides the single stuck-at fault f exactly: it builds the
// good-vs-faulty miter over the fault's fanout cone (faulty copy) and the
// support of that cone's observation points (good copy), asserts the
// activation condition and that some observation point differs, and solves.
// UNSAT is a proof of redundancy; SAT yields a detecting test cube.
//
// The encoding is cone-restricted on purpose: only stimulus bits that can
// possibly matter become decision variables, so the solver's fixed
// input-first decision order searches the same space PODEM does — but runs
// to completion instead of giving up at a backtrack budget. The result is
// bit-reproducible: identical inputs give identical verdicts, cubes and
// conflict counts.
func ProveFault(c *netlist.Circuit, f faults.Fault) Proof {
	p, _ := ProveFaultContext(context.Background(), c, f)
	return p
}

// ProveFaultContext is ProveFault that stops when ctx is done. A stopped
// proof returns an error wrapping the context's and a Proof that is
// neither Redundant nor carries a Cube: the fault is undecided. Its
// counters hold the work done up to the stop.
func ProveFaultContext(ctx context.Context, c *netlist.Circuit, f faults.Fault) (Proof, error) {
	cnf, good := faultMiter(c, f)
	if cnf == nil {
		return Proof{Redundant: true}, nil
	}
	s := NewSolver(cnf)
	sat, err := s.SolveContext(ctx)
	p := Proof{Conflicts: s.Conflicts(), Decisions: s.Decisions(), Propagations: s.Propagations(), MemoHits: s.MemoHits()}
	if err != nil {
		return p, fmt.Errorf("sat: proof of %s stopped after %d conflicts: %w", f.String(c), p.Conflicts, err)
	}
	p.Redundant = !sat
	if sat {
		p.Cube = good.InputCube(s)
	}
	return p, nil
}

// faultMiter builds ProveFault's miter for f and the good copy's encoding,
// from which a model's cube is read. A nil formula means the fault is
// redundant by construction: its effect reaches no observation point, or
// only points where the faulty copy is structurally the good one.
func faultMiter(c *netlist.Circuit, f faults.Fault) (*CNF, *CircuitEncoding) {
	if !c.Finalized() {
		panic("sat: ProveFault on non-finalized circuit")
	}
	site := c.Gate(f.Gate)
	if f.Pin != faults.StemPin && (f.Pin < 0 || f.Pin >= len(site.Fanin)) {
		panic(fmt.Sprintf("sat: ProveFault pin %d out of range for gate %q", f.Pin, site.Name))
	}
	stuck := f.Stuck == logic.One

	// A branch fault on a DFF data pin is captured directly into that
	// flop's response position: it is detected exactly when the good
	// driver value differs from the stuck value (the convention every
	// faultsim engine and reference oracle shares).
	if f.Pin != faults.StemPin && site.Type == netlist.DFF {
		drv := site.Fanin[f.Pin]
		cnf := NewCNF()
		enc := NewEncoder(cnf)
		good := enc.Circuit(c, Support(c, []netlist.GateID{drv}))
		want := good.Lit(drv)
		if stuck {
			want = want.Neg()
		}
		cnf.Add(want)
		return cnf, good
	}

	// Forward cone of the fault effect through combinational fanout, and
	// the observation points it reaches (primary outputs and DFF data-pin
	// drivers — the pseudo-output frame).
	isObserved := make(map[netlist.GateID]bool, len(c.PseudoOutputs()))
	for _, id := range c.PseudoOutputs() {
		isObserved[id] = true
	}
	cone := map[netlist.GateID]bool{f.Gate: true}
	stack := []netlist.GateID{f.Gate}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range c.Fanout(id) {
			if c.Gate(y).Type.Combinational() && !cone[y] {
				cone[y] = true
				stack = append(stack, y)
			}
		}
	}
	var obsPoints []netlist.GateID // deterministic frame order, deduplicated
	seen := make(map[netlist.GateID]bool)
	for _, id := range c.PseudoOutputs() {
		if cone[id] && !seen[id] {
			seen[id] = true
			obsPoints = append(obsPoints, id)
		}
	}
	if len(obsPoints) == 0 {
		// The fault effect reaches no observation point at all.
		return nil, nil
	}
	// Prune the cone back from the observation points: fanout branches that
	// dead-end unobserved cannot influence detection, and their fanins lie
	// outside the good copy's support. The pruned cone is backward-closed —
	// every in-cone fanin of a kept gate is kept — so the faulty copy below
	// never reads an unencoded literal.
	keep := make(map[netlist.GateID]bool, len(cone))
	stack = append(stack[:0], obsPoints...)
	for _, o := range obsPoints {
		keep[o] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fin := range c.Gate(id).Fanin {
			if cone[fin] && !keep[fin] {
				keep[fin] = true
				stack = append(stack, fin)
			}
		}
	}
	cone = keep

	// Good copy over the support of the observed cone plus the fault site
	// (whose fanins the faulty copy reads).
	roots := append(append([]netlist.GateID(nil), obsPoints...), f.Gate)
	cnf := NewCNF()
	enc := NewEncoder(cnf)
	good := enc.Circuit(c, Support(c, roots))

	// Faulty copy: the fault site evaluates to the stuck constant (stem)
	// or with one pin forced (branch); everything downstream in the cone
	// re-evaluates, reading faulty values inside the cone and good values
	// outside it.
	stuckLit := enc.False()
	if stuck {
		stuckLit = enc.True()
	}
	faulty := make([]Lit, c.NumGates())
	if f.Pin == faults.StemPin {
		faulty[f.Gate] = stuckLit
	} else {
		ins := make([]Lit, len(site.Fanin))
		for j, fin := range site.Fanin {
			if j == f.Pin {
				ins[j] = stuckLit
			} else {
				ins[j] = good.Lit(fin)
			}
		}
		faulty[f.Gate] = enc.Gate(site.Type.Func(), site.Type.Inverted(), ins)
	}
	var ins []Lit
	for _, id := range c.TopoOrder() {
		if !cone[id] || id == f.Gate {
			continue
		}
		g := c.Gate(id)
		ins = ins[:0]
		for _, fin := range g.Fanin {
			if cone[fin] {
				ins = append(ins, faulty[fin])
			} else {
				ins = append(ins, good.Lit(fin))
			}
		}
		faulty[id] = enc.Gate(g.Type.Func(), g.Type.Inverted(), ins)
	}

	// Activation: the line the fault sits on must carry the opposite of
	// the stuck value in the good circuit, or the two copies are
	// identical. Necessary for detection, and prunes the search hard.
	actLine := f.Gate
	if f.Pin != faults.StemPin {
		actLine = site.Fanin[f.Pin]
	}
	act := good.Lit(actLine)
	if stuck {
		act = act.Neg()
	}
	cnf.Add(act)

	// Detection: some observation point differs. The difference variables
	// are biconditional (d ↔ good ⊕ faulty): the d → side makes a model
	// with d true exhibit a real difference, and the ← side lets unit
	// propagation force d false the moment good and faulty agree — so a
	// partial stimulus that masks the fault at every observation point
	// conflicts with the detection clause immediately, pruning the whole
	// subtree below it instead of enumerating it. This is the solver's
	// analog of PODEM's X-path check, and on redundant faults with wide
	// support it is the difference between exhausting 2^k stimuli and
	// backtracking as soon as the fault effect dies.
	var diffs []Lit
	for _, o := range obsPoints {
		a, b := good.Lit(o), faulty[o]
		if a == b {
			continue // structurally identical: this point can never differ
		}
		d := cnf.NewVar()
		cnf.Add(d.Neg(), a, b)
		cnf.Add(d.Neg(), a.Neg(), b.Neg())
		cnf.Add(d, a.Neg(), b)
		cnf.Add(d, a, b.Neg())
		diffs = append(diffs, d)
	}
	if len(diffs) == 0 {
		return nil, nil
	}
	cnf.Add(diffs...)
	return cnf, good
}

// InputCube extracts the stimulus of a satisfying model: the modeled value
// of every encoded pseudo input, X for inputs outside the encoding.
func (ce *CircuitEncoding) InputCube(s *Solver) logic.Cube {
	ppis := ce.C.PseudoInputs()
	cube := logic.NewCube(len(ppis))
	for i, id := range ppis {
		if l := ce.lit[id]; l != 0 {
			cube[i] = logic.FromBool(s.ValueOf(l))
		}
	}
	return cube
}

// Analyzer answers repeated satisfiability queries about one circuit over
// a single full encoding and solver — the workhorse of the SAT-backed lint
// rules. Queries are deterministic: the same circuit and query sequence
// always produces the same verdicts and conflict counts.
type Analyzer struct {
	enc *CircuitEncoding
	s   *Solver
}

// NewAnalyzer encodes the full good circuit and builds its solver.
func NewAnalyzer(c *netlist.Circuit) *Analyzer {
	cnf := NewCNF()
	enc := NewEncoder(cnf)
	ce := enc.Circuit(c, nil)
	return &Analyzer{enc: ce, s: NewSolver(cnf)}
}

// ConstantNet decides whether gate id's output net is provably constant
// over all fully specified stimuli. When it is, val is the constant.
func (a *Analyzer) ConstantNet(id netlist.GateID) (val bool, constant bool) {
	l := a.enc.Lit(id)
	if !a.s.Solve(l) {
		return false, true // can never be 1
	}
	if !a.s.Solve(l.Neg()) {
		return true, true // can never be 0
	}
	return false, false
}

// Conflicts returns the cumulative solver conflicts spent by this analyzer.
func (a *Analyzer) Conflicts() int64 { return a.s.Conflicts() }
