package netlist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// Builder assembles a circuit from nets declared by name or number in any
// order: a gate may use nets declared after it, and DFFs may close
// sequential loops. Build and ReadBench both end in one pass, which
// records every problem of the declarations instead of stopping at the
// first.
//
// Gate IDs follow a fixed rule: inputs, then DFFs, each in declaration
// order, then the combinational gates in the order of a worklist that
// sweeps the pending gates by sorted name, round after round, inserting
// each gate whose fanin exists. Gate g lands in round R(g) = max(1, max
// over combinational fanin f of R(f) + [name(f) > name(g)]), and a round
// is in name order. Build computes R in one pass (rounds) and sorts once
// by (R, name), names by sortKey first: O(n log n) in gates.
//
// Storage is flat: every net has a number, from AddNets or, for a name,
// from its first mention, and the name methods make the declarations the
// numbered ones make. A declaration is a 20-byte record whose fanin is a
// range of one shared pin array. Build rewrites those pins in place into
// the circuit's gate IDs, so every gate's Fanin is a subslice of one array
// and a builder builds one circuit.
type Builder struct {
	name  string
	index map[string]int32 // net name → net number, made by the first declaration by name
	nets  []string         // net names by net number
	decls []decl           // declarations in call order
	pins  []GateID         // gate fanin as net numbers, then gate IDs after Build
	line  int32            // the source line of the next declarations
	// typeNames holds the type token of each gate ReadBench could not
	// type, by declaration index.
	typeNames map[int32]string
}

// decl is one declaration: an input, an output, or a gate of type typ
// driving net with fanin pins[pin : pin+n].
type decl struct {
	kind   stmtKind
	typ    GateType
	line   int32
	net    int32
	pin, n int32
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// Grow makes room for nets more nets, decls more declarations and pins
// more fanin pins.
func (b *Builder) Grow(nets, decls, pins int) {
	b.nets, b.decls, b.pins = slices.Grow(b.nets, nets), slices.Grow(b.decls, decls), slices.Grow(b.pins, pins)
}

// AddNets numbers n new nets, base on, for declarations by number, and
// returns base: net base+i is called what name(dst, i) appends to dst, a
// substring of one string. Names must be new. A net may be declared before
// it is named, if none is declared by name in between.
func (b *Builder) AddNets(n int, name func(dst []byte, i int) []byte) int32 {
	base, ends, buf := int32(len(b.nets)), make([]int32, n), make([]byte, 0, 8*n)
	for i := range ends {
		buf = name(buf, i)
		ends[i] = int32(len(buf))
	}
	s, start := string(buf), int32(0)
	for _, end := range ends {
		b.nets, start = append(b.nets, s[start:end]), end
	}
	b.index = nil // the next declaration by name indexes every name again
	return base
}

// net returns the net number of name, numbering it on first mention.
func (b *Builder) net(name string) int32 {
	if b.index == nil {
		b.index = make(map[string]int32, len(b.nets))
		for k, n := range b.nets {
			b.index[n] = int32(k)
		}
	}
	k, ok := b.index[name]
	if !ok {
		k, b.index[name] = int32(len(b.nets)), int32(len(b.nets))
		b.nets = append(b.nets, name)
	}
	return k
}

// declare records a declaration of net k with fanin pins[pin:].
func (b *Builder) declare(kind stmtKind, k int32, t GateType, pin int) {
	b.decls = append(b.decls, decl{kind, t, b.line, k, int32(pin), int32(len(b.pins) - pin)})
}

// Input declares a primary input.
func (b *Builder) Input(name string) { b.InputNet(b.net(name)) }

// Output declares the net called name a primary output.
func (b *Builder) Output(name string) { b.OutputNet(b.net(name)) }

// Gate declares a gate of type t (any type but Input) driving the net
// called name. The builder does not keep the fanin slice.
func (b *Builder) Gate(name string, t GateType, fanin ...string) {
	pin := len(b.pins)
	for _, f := range fanin {
		b.pins = append(b.pins, GateID(b.net(f)))
	}
	b.declare(benchGate, b.net(name), t, pin)
}

// InputNet declares net k a primary input.
func (b *Builder) InputNet(k int32) { b.declare(benchInput, k, 0, len(b.pins)) }

// OutputNet declares net k a primary output.
func (b *Builder) OutputNet(k int32) { b.declare(benchOutput, k, 0, len(b.pins)) }

// GateNet is Gate by net number.
func (b *Builder) GateNet(k int32, t GateType, fanin ...int32) {
	pin := len(b.pins)
	for _, f := range fanin {
		b.pins = append(b.pins, GateID(f))
	}
	b.declare(benchGate, k, t, pin)
}

// CopyGates declares every gate of c but its inputs, in ID order, gate id
// driving net base+id from nets base+f.
func (b *Builder) CopyGates(c *Circuit, base int32) {
	for i := range c.gates {
		if g := &c.gates[i]; g.Type != Input {
			pin := len(b.pins)
			for _, f := range g.Fanin {
				b.pins = append(b.pins, GateID(base)+f)
			}
			b.declare(benchGate, base+int32(g.ID), g.Type, pin)
		}
	}
}

// Build returns the finalized circuit, or every problem of the
// declarations joined into one error (errors.Join), the first on its first
// line.
//
// Problems come in a fixed order: unknown gate types, duplicate inputs,
// duplicate gates, the DFFs' problems in declaration order, the other
// gates' problems in insertion order, the undriven nets combinational
// gates read by name, one combinational cycle, the problems of the gates
// the undriven nets or the cycle keep out, the undriven nets only DFFs
// read, then the OUTPUT declarations' problems in declaration order. A
// gate's problems are an INPUT of its net, then its fanin count.
func (b *Builder) Build() (*Circuit, error) {
	c, _, probs := b.build()
	return c, joinProblems(probs)
}

// undrivenNet is a net that gates read but nothing drives.
type undrivenNet struct {
	net, line int32  // the net, and the line of the first gate reading it
	gate      string // the first gate reading it
	comb      bool   // a combinational gate reads it
}

// build is Build's pass: the finalized circuit and the gate ID of each
// net, or nil and every problem in Build's order. On valid declarations it
// allocates no more than the circuit and its bookkeeping.
func (b *Builder) build() (*Circuit, []GateID, []Problem) {
	name, nm := b.name, b.nets
	var probs []Problem
	bad := func(kind ProblemKind, line int32, subject, format string, args ...any) {
		probs = append(probs, Problem{kind, name, int(line), subject, fmt.Sprintf(format, args...)})
	}
	for i, d := range b.decls {
		if d.kind == benchGate && !d.typ.Valid() {
			tn, ok := b.typeNames[int32(i)]
			if !ok {
				tn = d.typ.String()
			}
			bad(UnknownType, d.line, nm[d.net], "unknown gate type %q", tn)
		}
	}
	id := make([]GateID, len(nm)) // gate ID of each net, once added
	drv := make([]int32, len(nm)) // the gate declaring each net
	// first holds the line of each net's first INPUT until the OUTPUT
	// declarations reuse it.
	first := make([]int32, len(nm))
	for k := range id {
		id[k], drv[k] = InvalidGate, -1
	}
	c := &Circuit{Name: name, gates: make([]Gate, 0, len(b.decls))}
	for _, d := range b.decls {
		if d.kind != benchInput {
			continue
		} else if id[d.net] >= 0 {
			bad(DuplicateDefinition, d.line, nm[d.net], "duplicate definition of net %q (first defined at line %d)",
				nm[d.net], first[d.net])
		} else {
			id[d.net], first[d.net] = c.add(nm[d.net], Input, nil), d.line
		}
	}
	gates := make([]decl, 0, len(b.decls))
	for _, d := range b.decls {
		if d.kind != benchGate {
			continue
		} else if g := drv[d.net]; g >= 0 {
			bad(DuplicateDefinition, d.line, nm[d.net], "duplicate definition of net %q (first defined at line %d)",
				nm[d.net], gates[g].line)
		} else {
			drv[d.net] = int32(len(gates))
			gates = append(gates, d)
		}
	}
	// check records the problems of gate d and reports whether it may be
	// added: not when its type is unknown or an input drives its net.
	check := func(d decl) bool {
		k := d.net
		if id[k] >= 0 {
			in := first[k]
			bad(MultiplyDriven, max(in, d.line), nm[k],
				"net %q is multiply driven: primary input (line %d) and gate output (line %d)", nm[k], in, d.line)
		}
		if !d.typ.Valid() {
			return false
		} else if msg := arity(nm[k], d.typ, int(d.n)); msg != "" {
			bad(Arity, d.line, nm[k], "%s", msg)
		}
		return id[k] < 0
	}
	// DFF fanin does not gate insertion order (it may close a sequential
	// loop): DFFs go in first, their fanin pin patched at the end.
	for _, d := range gates {
		if d.typ == DFF && check(d) {
			id[d.net] = c.add(nm[d.net], DFF, b.fanin(d))
		}
	}
	// A fanin naming an input or DFF is resolved already; one naming no
	// declared net is undriven and never resolves. A gate of unknown type
	// waits for nothing.
	var undriven []undrivenNet
	undrivenAt := map[int32]int{} // the index of each undriven net in undriven
	// Gate i waits for the gates flat[off[i]:off[i+1]].
	off, flat := make([]int32, len(gates)+1), make([]int32, 0, len(b.pins))
	for i, d := range gates {
		comb := d.typ != DFF
		for _, f := range b.fanin(d) {
			if id[f] >= 0 {
				continue
			}
			if k := int32(f); drv[k] < 0 {
				if u, ok := undrivenAt[k]; ok {
					undriven[u].comb = undriven[u].comb || comb
				} else {
					undrivenAt[k] = len(undriven)
					undriven = append(undriven, undrivenNet{k, d.line, nm[d.net], comb})
				}
			}
			if comb && d.typ.Valid() {
				flat = append(flat, drv[f])
			}
		}
		off[i+1] = int32(len(flat))
	}
	deps := func(i int) []int32 { return flat[off[i]:off[i+1]] }
	gname := func(i int32) string { return nm[gates[i].net] }
	round := rounds(len(gates), deps, gname)
	// The sort compares names by their sort keys, by their text only on a
	// tie.
	type ranked struct {
		key      uint64
		round, i int32
	}
	order := make([]ranked, 0, len(gates))
	for i, d := range gates {
		if round[i] > 0 && d.typ != DFF {
			order = append(order, ranked{sortKey(gname(int32(i))), round[i], int32(i)})
		}
	}
	slices.SortFunc(order, func(x, y ranked) int {
		if r := cmp.Compare(x.round, y.round); r != 0 {
			return r
		} else if r := cmp.Compare(x.key, y.key); r != 0 {
			return r
		}
		return strings.Compare(gname(x.i), gname(y.i))
	})
	for _, r := range order {
		if d := gates[r.i]; check(d) {
			fanin := b.fanin(d)
			for k, f := range fanin {
				fanin[k] = id[f] // the pins become the gate's Fanin
			}
			id[d.net] = c.add(nm[d.net], d.typ, fanin)
		}
	}
	byName := slices.Clone(undriven)
	slices.SortFunc(byName, func(x, y undrivenNet) int { return strings.Compare(nm[x.net], nm[y.net]) })
	for _, u := range byName {
		if u.comb {
			bad(Undriven, u.line, nm[u.net], "undriven net %q referenced by gate %q (defined nowhere)", nm[u.net], u.gate)
		}
	}
	if slices.Contains(round, 0) {
		// The gates left at round 0 sit on or behind a cycle or an undriven
		// net: report one concrete path through the stuck gates, if they
		// close one, then the problems of each.
		stuck, at := map[string][]string{}, map[string]int32{}
		for i := range gates {
			for _, j := range deps(i) {
				if round[i] == 0 && j >= 0 && round[j] == 0 {
					n := gname(int32(i))
					stuck[n], at[n] = append(stuck[n], gname(j)), int32(i)
				}
			}
		}
		if cycle := findCycle(stuck); cycle != nil {
			path := strings.Join(cycle, " -> ")
			bad(Cycle, gates[at[cycle[0]]].line, path, "combinational cycle: %s", path)
		}
		for i, d := range gates {
			if round[i] == 0 {
				check(d)
			}
		}
	}
	for _, u := range undriven {
		if !u.comb {
			bad(Undriven, u.line, nm[u.net], "undriven net %q referenced by gate %q (defined nowhere)", nm[u.net], u.gate)
		}
	}
	clear(first) // now 1 + the index of each net's first OUTPUT declaration
	for i, d := range b.decls {
		k := d.net
		switch {
		case d.kind != benchOutput:
		case first[k] > 0:
			bad(DuplicateOutput, d.line, nm[k], "duplicate OUTPUT declaration of net %q (first declared at line %d)",
				nm[k], b.decls[first[k]-1].line)
		default:
			first[k] = int32(i) + 1
			if id[k] >= 0 || drv[k] >= 0 {
				c.outputs = append(c.outputs, id[k])
			} else if _, ok := undrivenAt[k]; !ok {
				bad(Undriven, d.line, nm[k], "undriven net %q declared OUTPUT but defined nowhere", nm[k])
			}
		}
	}
	if len(probs) > 0 {
		return nil, nil, probs
	}
	for _, d := range gates {
		if d.typ == DFF {
			b.pins[d.pin] = id[b.pins[d.pin]]
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, nil, []Problem{{Kind: Cycle, File: name, Msg: err.Error()}}
	}
	return c, id, nil
}

// fanin returns the pins of declaration d.
func (b *Builder) fanin(d decl) []GateID { return b.pins[d.pin : d.pin+d.n : d.pin+d.n] }

// rounds computes in one Kahn pass the round in which a worklist sweeping
// the n pending nodes of a dependency graph by name, round after round,
// resolves each node: R(k) = max(1, max over d in deps(k) of R(d) +
// [name(d) > name(k)]). A negative entry in deps(k) never resolves; nodes
// on or behind a cycle or such an entry get 0.
func rounds(n int, deps func(k int) []int32, name func(int32) string) []int32 {
	off, succ := invert(n, deps)
	indeg := make([]int32, n)
	queue := make([]int32, 0, n)
	for k := range indeg {
		indeg[k] = int32(len(deps(k)))
		if indeg[k] == 0 {
			queue = append(queue, int32(k))
		}
	}
	round := make([]int32, n)
	for h := 0; h < len(queue); h++ {
		d := queue[h]
		round[d] = max(round[d], 1)
		for _, s := range succ[off[d]:off[d+1]] {
			r := round[d]
			if name(d) > name(s) {
				r++
			}
			round[s] = max(round[s], r)
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	for k := range round {
		if indeg[k] > 0 {
			round[k] = 0
		}
	}
	return round
}

// sortKey returns the first eight bytes of s, zero-padded, big-endian.
// Where two names' keys differ, the names differ in the same direction:
// padding sorts below every byte but NUL, and a NUL ties with it.
func sortKey(s string) uint64 {
	var k [8]byte
	copy(k[:], s)
	return binary.BigEndian.Uint64(k[:])
}

// findCycle returns one dependency cycle in the graph as a name path
// "a, b, ..., a", or nil if the graph has none. Traversal order is
// deterministic: sorted names throughout.
func findCycle(deps map[string][]string) []string {
	names := make([]string, 0, len(deps))
	for n, ds := range deps {
		names = append(names, n)
		slices.Sort(ds)
	}
	slices.Sort(names)
	// onPath[n] is n's position on the current path plus one; done marks
	// the nodes explored to the end.
	onPath, done := map[string]int{}, map[string]bool{}
	var path, cycle []string
	var visit func(n string) bool
	visit = func(n string) bool {
		path = append(path, n)
		onPath[n] = len(path)
		for _, d := range deps[n] {
			if i := onPath[d]; i > 0 {
				cycle = append(slices.Clone(path[i-1:]), d) // close the loop at d
				return true
			} else if !done[d] && visit(d) {
				return true
			}
		}
		path, onPath[n], done[n] = path[:len(path)-1], 0, true
		return false
	}
	for _, n := range names {
		if !done[n] && visit(n) {
			return cycle
		}
	}
	return nil
}
