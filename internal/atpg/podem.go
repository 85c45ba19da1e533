// Package atpg implements automatic test pattern generation for single
// stuck-at faults on full-scan circuits: a PODEM (Path-Oriented DEcision
// Making) search engine with five-valued implication, D-frontier tracking,
// X-path checking and backtrack limiting, plus a generation loop with fault
// dropping, static test-cube compaction and reverse-order pattern pruning.
//
// Implication runs on the compiled faultsim.Program and is event-driven:
// each decision propagates level by level from the one pseudo input it
// changed, and every backtrack is undone from a trail of overwritten
// values rather than by re-simulation. The D-frontier and the X-path check
// walk only the target fault's combinational fanout cone, so one search
// step costs O(changed gates + cone), not O(circuit).
//
// Fault dropping is lazy and exact: each new cube is queued in a lane of
// the engine's pending batch and verified there by the compiled
// single-fault check, and the batch is applied 64 cubes at a time. Targets
// skip faults that the applied or the queued cubes detect, which is the
// target sequence of applying every cube at once (DESIGN.md has the
// argument). Each run compiles its circuit once and shares the Program
// with every engine and PODEM search it builds.
//
// The generator is the reproduction's stand-in for ATALANTA in the paper's
// experiments: it exhibits the generic ATPG properties the paper's analysis
// relies on (per-cone pattern generation, compaction of non-conflicting
// cubes, wide pattern-count variation between cones).
package atpg

import (
	"fmt"
	"slices"

	"repro/internal/faults"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Status classifies the outcome of targeting one fault.
type Status uint8

const (
	// Detected: a test cube was found.
	Detected Status = iota
	// Redundant: the search space was exhausted; the fault is untestable.
	Redundant
	// Aborted: the backtrack limit was hit before a verdict.
	Aborted
	// ProvedRedundant: the fault was Aborted by the PODEM search and then
	// formally proven untestable by the SAT redundancy prover
	// (SettleAborted) — the good-vs-faulty miter is unsatisfiable. It is
	// distinguished from Redundant (search-space exhaustion inside the
	// backtrack budget) so accounting can show how much the formal layer
	// settled.
	ProvedRedundant
)

// String returns the lowercase name of s.
func (s Status) String() string {
	switch s {
	case Detected:
		return "detected"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	case ProvedRedundant:
		return "proved-redundant"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// The five-valued gate algebra as lookup tables, filled from package logic
// so implication computes exactly logic.And, Or, Xor and Not.
var (
	and5, or5, xor5 [5][5]logic.V
	not5            [5]logic.V
)

func init() {
	vs := [...]logic.V{logic.Zero, logic.One, logic.X, logic.D, logic.DBar}
	for _, a := range vs {
		not5[a] = logic.Not(a)
		for _, b := range vs {
			and5[a][b] = logic.And(a, b)
			or5[a][b] = logic.Or(a, b)
			xor5[a][b] = logic.Xor(a, b)
		}
	}
}

// trailEntry records the value a gate held before implication overwrote
// it, so a backtrack restores the earlier state exactly.
type trailEntry struct {
	id  int32
	old logic.V
}

// podem is the per-circuit search engine. It is reused across faults.
type podem struct {
	c     *netlist.Circuit
	prog  *faultsim.Program
	gates []faultsim.GateSpec // compiled gates, decoded once
	order []int32             // compiled topological order
	pos   []int32             // gate -> index in order; -1 for sources
	isPPO []bool
	ppis  []netlist.GateID
	piPos []int32 // pseudo input -> cube position

	// values is the five-valued implication of the applied assignments
	// with the target fault injected. Between searches it is unwound to
	// the baseline: every source X, no fault, constants implied.
	values  []logic.V
	trail   []trailEntry
	applied []assignment // assignments reflected in values, in order
	marks   []int        // trail length before each applied assignment

	// Level-bucketed event queue of gates awaiting re-evaluation.
	buckets [][]int32
	queued  []bool
	lo, hi  int32 // pending level range; lo > hi when empty

	fault  faults.Fault
	site   int32 // fault.Gate
	line   int32 // the faulty line's driver: site for stems, the pin's driver for branches
	dffPin bool  // fault is a branch fault on a DFF data pin

	// The site's combinational fanout cone: the only gates a fault effect
	// can reach. cone lists its evaluated gates in topological order;
	// conePPO its pseudo-output gates (the site included).
	cone    []int32
	conePPO []int32
	df      []int32 // D-frontier of the current state, in topological order

	seen  []uint32 // visit stamps for cone and X-path walks
	epoch uint32
	stack []int32

	// base carries immutable pre-assignments for dynamic compaction: the
	// already-committed bits of the cube being extended. Nil outside
	// dynamic compaction.
	base logic.Cube

	backtracks int
	limit      int

	// Search-effort counters (nil when observability is disabled).
	cBacktracks   *obs.Counter // atpg.backtracks
	cDecisions    *obs.Counter // atpg.decisions
	cImplications *obs.Counter // atpg.implications
	cGateEvals    *obs.Counter // atpg.implication.gate_evals

	// afterImply, when set, observes every implication step of the search
	// (the differential tests compare each one with a full sweep). It is
	// nil in production.
	afterImply func(stack []assignment)
}

// newPodem returns a search engine over the run's compiled Program.
func newPodem(prog *faultsim.Program, limit int, col *obs.Collector) *podem {
	n := prog.NumGates()
	p := &podem{
		c:             prog.Circuit(),
		prog:          prog,
		gates:         make([]faultsim.GateSpec, n),
		order:         prog.Order(),
		pos:           make([]int32, n),
		isPPO:         make([]bool, n),
		ppis:          prog.PPIs(),
		piPos:         make([]int32, n),
		values:        make([]logic.V, n),
		buckets:       make([][]int32, prog.NumLevels()),
		queued:        make([]bool, n),
		seen:          make([]uint32, n),
		limit:         limit,
		cBacktracks:   col.Counter("atpg.backtracks"),
		cDecisions:    col.Counter("atpg.decisions"),
		cImplications: col.Counter("atpg.implications"),
		cGateEvals:    col.Counter("atpg.implication.gate_evals"),
	}
	p.lo, p.hi = int32(len(p.buckets)), -1
	p.site, p.line = -1, -1 // no fault injected in the baseline
	for id := range p.gates {
		p.gates[id] = prog.Spec(int32(id))
		p.pos[id] = -1
		p.values[id] = logic.X
	}
	for i, id := range p.order {
		p.pos[id] = int32(i)
	}
	for _, id := range prog.PPOs() {
		p.isPPO[id] = true
	}
	for i, id := range p.ppis {
		p.piPos[id] = int32(i)
	}
	// The baseline: with every source X only constants decide gates. One
	// full sweep here; every later change is event-driven.
	for _, id := range p.order {
		p.values[id] = p.eval(id)
	}
	return p
}

// assignment is one decision on a pseudo input.
type assignment struct {
	pi      netlist.GateID
	value   logic.V
	flipped bool // the alternative value has already been tried
}

// run searches for a test cube detecting f. It returns the cube (over the
// PseudoInputs frame) and Detected, or nil and Redundant/Aborted.
func (p *podem) run(f faults.Fault) (logic.Cube, Status) {
	return p.runWithBase(f, nil)
}

// runWithBase searches for a test cube detecting f under the immutable
// pre-assignments in base (used by dynamic compaction to extend an
// existing cube with a secondary target). The returned cube includes the
// base bits. An exhausted search under a non-nil base means "not
// compatible with this cube", which is reported as Aborted, not Redundant:
// redundancy can only be proven by an unconstrained search.
func (p *podem) runWithBase(f faults.Fault, base logic.Cube) (logic.Cube, Status) {
	p.begin(f, base)
	p.backtracks = 0

	var stack []assignment
	for {
		p.cImplications.Inc()
		p.imply(stack)
		if p.afterImply != nil {
			p.afterImply(stack)
		}
		switch p.state() {
		case searchSuccess:
			cube := logic.NewCube(len(p.ppis))
			if base != nil {
				copy(cube, base)
			}
			for _, a := range stack {
				cube[p.piPos[a.pi]] = a.value
			}
			return cube, Detected
		case searchOpen:
			pi, v, ok := p.nextObjective()
			if !ok {
				// No way to make progress from here: treat as a dead end.
				var done bool
				stack, done = p.backtrack(stack)
				if done {
					if p.base != nil {
						return nil, Aborted
					}
					return nil, Redundant
				}
				if p.backtracks > p.limit {
					return nil, Aborted
				}
				continue
			}
			p.cDecisions.Inc()
			stack = append(stack, assignment{pi: pi, value: v})
		case searchDead:
			var done bool
			stack, done = p.backtrack(stack)
			if done {
				if p.base != nil {
					return nil, Aborted
				}
				return nil, Redundant
			}
			if p.backtracks > p.limit {
				return nil, Aborted
			}
		}
	}
}

// begin unwinds the previous search back to the baseline and sets up the
// search for f: its fanout cone, the fault injected at its site, and the
// base pre-assignments implied.
func (p *podem) begin(f faults.Fault, base logic.Cube) {
	p.undo(0)
	p.applied, p.marks = p.applied[:0], p.marks[:0]
	p.fault = f
	p.base = base
	p.site = int32(f.Gate)
	p.line = p.site
	p.dffPin = false
	if f.Pin != faults.StemPin {
		p.line = p.gates[p.site].Fanin[f.Pin]
		p.dffPin = p.c.Gate(f.Gate).Type == netlist.DFF
	}
	p.buildCone()
	if p.pos[p.site] >= 0 {
		// A combinational site re-evaluates with the fault injected; a
		// constant driving it may already expose the fault.
		p.schedule(p.site)
	}
	for i, v := range base {
		if v.Binary() {
			p.assign(p.ppis[i], v)
		}
	}
	p.propagate()
}

// backtrack pops exhausted decisions and flips the deepest unflipped one.
// It reports done=true when the whole space is exhausted.
func (p *podem) backtrack(stack []assignment) ([]assignment, bool) {
	p.backtracks++
	p.cBacktracks.Inc()
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if !top.flipped {
			top.flipped = true
			top.value = logic.Not(top.value)
			return stack, false
		}
		stack = stack[:len(stack)-1]
	}
	return stack, true
}

type searchState uint8

const (
	searchOpen searchState = iota
	searchSuccess
	searchDead
)

// imply brings values in line with the decision stack. The applied
// assignments the stack still shares as a prefix stay; the rest are undone
// from the trail, and each new decision is implied event-driven on its own
// trail mark. A decision therefore costs the gates it changes, and a
// backtrack the gates its undone decisions had changed.
func (p *podem) imply(stack []assignment) {
	k := 0
	for k < len(p.applied) && k < len(stack) &&
		p.applied[k].pi == stack[k].pi && p.applied[k].value == stack[k].value {
		k++
	}
	if k < len(p.applied) {
		p.undo(p.marks[k])
		p.applied, p.marks = p.applied[:k], p.marks[:k]
	}
	for _, a := range stack[k:] {
		p.marks = append(p.marks, len(p.trail))
		p.applied = append(p.applied, a)
		p.assign(a.pi, a.value)
		p.propagate()
	}
}

// assign sets a pseudo input, injecting a stem fault sited on it.
func (p *podem) assign(pi netlist.GateID, v logic.V) {
	if int32(pi) == p.site && p.fault.Pin == faults.StemPin {
		v = faultyValue(v, p.fault.Stuck)
	}
	p.set(int32(pi), v)
}

// set overwrites a gate value on the trail and schedules its fanout.
func (p *podem) set(id int32, v logic.V) {
	if p.values[id] == v {
		return
	}
	p.trail = append(p.trail, trailEntry{id, p.values[id]})
	p.values[id] = v
	for _, s := range p.prog.Fanouts(id) {
		p.schedule(s)
	}
}

func (p *podem) schedule(id int32) {
	if p.queued[id] {
		return
	}
	p.queued[id] = true
	l := p.prog.Level(id)
	p.buckets[l] = append(p.buckets[l], id)
	if l < p.lo {
		p.lo = l
	}
	if l > p.hi {
		p.hi = l
	}
}

// propagate re-evaluates the scheduled gates level by level; a changed
// gate schedules its fanout, always at a higher level.
func (p *podem) propagate() {
	var evals int64
	for l := p.lo; l <= p.hi; l++ {
		bucket := p.buckets[l]
		for _, id := range bucket {
			p.queued[id] = false
			evals++
			p.set(id, p.eval(id))
		}
		p.buckets[l] = bucket[:0]
	}
	p.lo, p.hi = int32(len(p.buckets)), -1
	p.cGateEvals.Add(evals)
}

// undo restores every value overwritten since the trail had length mark.
func (p *podem) undo(mark int) {
	for i := len(p.trail) - 1; i >= mark; i-- {
		e := p.trail[i]
		p.values[e.id] = e.old
	}
	p.trail = p.trail[:mark]
}

// eval computes the five-valued output of combinational gate id from the
// current values, with the target fault injected when id is its site.
func (p *podem) eval(id int32) logic.V {
	g := &p.gates[id]
	pin := faults.StemPin
	if id == p.site {
		pin = int(p.fault.Pin)
	}
	var v logic.V
	switch g.Kind {
	case netlist.FuncBuf:
		v = p.pinValue(g.Fanin, 0, pin)
	case netlist.FuncAnd:
		v = logic.One
		for j := range g.Fanin {
			v = and5[v][p.pinValue(g.Fanin, j, pin)]
		}
	case netlist.FuncOr:
		v = logic.Zero
		for j := range g.Fanin {
			v = or5[v][p.pinValue(g.Fanin, j, pin)]
		}
	case netlist.FuncXor:
		v = logic.Zero
		for j := range g.Fanin {
			v = xor5[v][p.pinValue(g.Fanin, j, pin)]
		}
	case netlist.FuncConst:
		v = logic.Zero
	default:
		panic(fmt.Sprintf("atpg: implication evaluated source gate %d", id))
	}
	if g.Invert {
		v = not5[v]
	}
	if id == p.site && pin == faults.StemPin {
		// Stem fault on a combinational gate: the line downstream of the
		// gate carries the faulty composite value.
		v = faultyValue(v, p.fault.Stuck)
	}
	return v
}

// pinValue is the value gate input j sees: its driver's, or the faulty
// branch value on the fault's pin.
func (p *podem) pinValue(fanin []int32, j, pin int) logic.V {
	v := p.values[fanin[j]]
	if j == pin {
		v = faultyValue(v, p.fault.Stuck)
	}
	return v
}

// buildCone collects the site's combinational fanout cone. A DFF-pin
// fault is decided at its capture alone and needs no cone.
func (p *podem) buildCone() {
	p.cone, p.conePPO = p.cone[:0], p.conePPO[:0]
	if p.dffPin {
		return
	}
	p.stamp()
	stack := append(p.stack[:0], p.site)
	p.seen[p.site] = p.epoch
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.isPPO[n] {
			p.conePPO = append(p.conePPO, n)
		}
		if p.pos[n] >= 0 {
			p.cone = append(p.cone, p.pos[n])
		}
		for _, s := range p.prog.Fanouts(n) {
			if p.seen[s] != p.epoch {
				p.seen[s] = p.epoch
				stack = append(stack, s)
			}
		}
	}
	p.stack = stack
	// Collected as topological positions; sort, then map back to gates.
	slices.Sort(p.cone)
	for i, k := range p.cone {
		p.cone[i] = p.order[k]
	}
}

// stamp starts a new visit epoch over seen.
func (p *podem) stamp() {
	p.epoch++
	if p.epoch == 0 {
		clear(p.seen)
		p.epoch = 1
	}
}

// faultyValue maps the good value of the faulty line to its five-valued
// composite: X stays X; a good value equal to the stuck value shows no
// effect; the opposite good value becomes D (SA0 on a good 1) or D̄.
func faultyValue(good logic.V, stuck logic.V) logic.V {
	switch good {
	case logic.X:
		return logic.X
	case stuck:
		return stuck
	default:
		if stuck == logic.Zero {
			return logic.D
		}
		return logic.DBar
	}
}

// state classifies the current implication result. On an activated fault
// it leaves the D-frontier in p.df for nextObjective.
func (p *podem) state() searchState {
	if p.dffPin {
		// Detection happens at the DFF capture: the driver's good value
		// must be the complement of the stuck value.
		v := p.values[p.line]
		switch {
		case v == logic.Not(p.fault.Stuck):
			return searchSuccess
		case v == p.fault.Stuck:
			return searchDead
		default:
			return searchOpen
		}
	}
	// Only pseudo outputs inside the cone can carry a fault effect.
	for _, id := range p.conePPO {
		if p.values[id].Faulty() {
			return searchSuccess
		}
	}
	// Activation check.
	site := p.siteValue()
	switch {
	case site.Faulty():
		// Activated: dead only if the D-frontier is empty or no X-path
		// remains to any observation point.
		df := p.dFrontier()
		if len(df) == 0 || !p.xPathExists(df) {
			return searchDead
		}
		return searchOpen
	case site == logic.X:
		return searchOpen
	default:
		// The faulty line settled at the stuck value: no activation
		// possible under this assignment.
		return searchDead
	}
}

// siteValue returns the current composite value on the faulty line.
func (p *podem) siteValue() logic.V {
	if p.fault.Pin == faults.StemPin {
		return p.values[p.site]
	}
	return faultyValue(p.values[p.line], p.fault.Stuck)
}

// dFrontier lists, in topological order, the gates with an X output and at
// least one faulty input (the injected branch value included). Such gates
// lie in the fault's cone, so only the cone is scanned.
func (p *podem) dFrontier() []int32 {
	df := p.df[:0]
	for _, id := range p.cone {
		if p.values[id] != logic.X {
			continue
		}
		pin := faults.StemPin
		if id == p.site {
			pin = int(p.fault.Pin)
		}
		fanin := p.gates[id].Fanin
		for j := range fanin {
			if p.pinValue(fanin, j, pin).Faulty() {
				df = append(df, id)
				break
			}
		}
	}
	p.df = df
	return df
}

// xPathExists reports whether some D-frontier gate reaches a pseudo output
// through X-valued gates only. Only a still-undetermined observation point
// can ever show the fault effect; binary outputs are frozen under further
// refinement. The walk runs forward from the frontier, so it stays inside
// the fault's cone.
func (p *podem) xPathExists(df []int32) bool {
	p.stamp()
	p.stack = p.stack[:0]
	for _, id := range df {
		if p.seen[id] != p.epoch {
			p.seen[id] = p.epoch
			p.stack = append(p.stack, id)
		}
	}
	for len(p.stack) > 0 {
		n := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		if p.isPPO[n] {
			return true
		}
		for _, s := range p.prog.Fanouts(n) {
			if p.values[s] == logic.X && p.seen[s] != p.epoch {
				p.seen[s] = p.epoch
				p.stack = append(p.stack, s)
			}
		}
	}
	return false
}

// nextObjective produces the next (pseudo input, value) decision via the
// standard PODEM objective/backtrace split.
func (p *podem) nextObjective() (netlist.GateID, logic.V, bool) {
	if !p.siteValue().Faulty() {
		// Objective 1: activate the fault — drive the faulty line's good
		// value to the complement of the stuck value.
		return p.backtrace(p.line, logic.Not(p.fault.Stuck))
	}
	// Objective 2: advance the D-frontier — set an X input of a frontier
	// gate to the gate's non-controlling value. state() has just computed
	// the frontier for the current values.
	if len(p.df) == 0 {
		return 0, logic.X, false
	}
	id := p.df[0]
	g := &p.gates[id]
	for j, fin := range g.Fanin {
		if p.values[fin] != logic.X {
			continue
		}
		if id == p.site && j == int(p.fault.Pin) {
			continue // the faulty branch is not assignable
		}
		// The non-controlling value; BUF and XOR propagate either, so 0.
		v := logic.Zero
		if c := g.Kind.Controlling(); c != logic.X {
			v = logic.Not(c)
		}
		return p.backtrace(fin, v)
	}
	return 0, logic.X, false
}

// backtrace walks an objective (line, value) backwards to an unassigned
// pseudo input, adjusting the target value through inversions.
func (p *podem) backtrace(line int32, v logic.V) (netlist.GateID, logic.V, bool) {
	for {
		g := &p.gates[line]
		switch g.Kind {
		case netlist.FuncSource:
			if p.values[line] != logic.X {
				return 0, logic.X, false // already assigned: objective stuck
			}
			return netlist.GateID(line), v, true
		case netlist.FuncBuf:
			line = g.Fanin[0]
			if g.Invert {
				v = logic.Not(v)
			}
		case netlist.FuncAnd, netlist.FuncOr:
			u := v
			if g.Invert {
				u = logic.Not(v)
			}
			ctrl := g.Kind.Controlling()
			next := int32(-1)
			best := int32(-1)
			for _, fin := range g.Fanin {
				if p.values[fin] != logic.X {
					continue
				}
				l := p.prog.Level(fin)
				// One controlling input suffices: pick the easiest (lowest
				// level) unassigned input. Otherwise all inputs must be
				// non-controlling: attack the hardest (highest level) first.
				if (u == ctrl && (best < 0 || l < best)) || (u != ctrl && l > best) {
					best = l
					next = fin
				}
			}
			if next < 0 {
				return 0, logic.X, false
			}
			line = next
			v = u
		case netlist.FuncXor:
			// Choose the first unassigned input; required value depends on
			// the parity of the assigned inputs, assuming the remaining X
			// inputs settle at 0.
			parity := logic.Zero
			next := int32(-1)
			for _, fin := range g.Fanin {
				if p.values[fin] == logic.X {
					if next < 0 {
						next = fin
					}
					continue
				}
				parity = logic.Xor(parity, p.values[fin].Good())
			}
			if next < 0 {
				return 0, logic.X, false
			}
			want := logic.Xor(v, parity)
			if g.Invert {
				want = logic.Not(want)
			}
			if !want.Binary() {
				want = logic.Zero
			}
			line = next
			v = want
		default: // constants cannot be steered
			return 0, logic.X, false
		}
	}
}
