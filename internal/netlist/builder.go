package netlist

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Builder assembles a circuit from nets declared by name in any order: a
// gate may use nets declared after it, and DFFs may close sequential
// loops. Build and ParseBench both end in BuildBench.
//
// Gate IDs follow a fixed rule: inputs, then DFFs, each in declaration
// order, then the combinational gates in the order of a worklist that
// sweeps the pending gates by sorted name, round after round, inserting
// each gate whose fanin exists. Gate g lands in round R(g) = max(1, max
// over combinational fanin f of R(f) + [name(f) > name(g)]), and a round
// is in name order. BuildBench computes R in one pass (Rounds) and sorts
// once by (R, name): O(n log n) in gates.
//
// Storage is flat: each net name is resolved to a dense net number once,
// when it is first mentioned, and a declaration is a 20-byte record whose
// fanin is a range of one shared pin array. Build rewrites those pins and
// the name index in place into the circuit's gate IDs, so every gate's
// Fanin is a subslice of one array and a builder builds one circuit.
type Builder struct {
	name  string
	index map[string]GateID // net name → net number; Build rewrites it to gate IDs
	nets  []string          // net names by net number
	decls []decl            // declarations in call order
	pins  []GateID          // gate fanin as net numbers, then gate IDs after Build
}

// decl is one declaration: an input, an output, or a gate of type typ
// driving net with fanin pins[pin : pin+n].
type decl struct {
	kind   BenchStmtKind
	typ    GateType
	line   int32
	net    int32
	pin, n int32
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, index: make(map[string]GateID)}
}

// net returns the net number of name, numbering it on first mention.
func (b *Builder) net(name string) int32 {
	k, ok := b.index[name]
	if !ok {
		k = GateID(len(b.nets))
		b.index[name] = k
		b.nets = append(b.nets, name)
	}
	return int32(k)
}

func (b *Builder) declare(kind BenchStmtKind, line int, name string, t GateType, fanin []string) {
	pin := len(b.pins)
	for _, f := range fanin {
		b.pins = append(b.pins, GateID(b.net(f)))
	}
	b.decls = append(b.decls, decl{kind: kind, typ: t, line: int32(line), net: b.net(name), pin: int32(pin), n: int32(len(fanin))})
}

// Input declares a primary input.
func (b *Builder) Input(name string) { b.declare(BenchInput, 0, name, 0, nil) }

// Output declares the net called name a primary output.
func (b *Builder) Output(name string) { b.declare(BenchOutput, 0, name, 0, nil) }

// Gate declares a gate of type t (any type but Input) driving the net
// called name. The builder does not keep the fanin slice.
func (b *Builder) Gate(name string, t GateType, fanin ...string) {
	b.declare(BenchGate, 0, name, t, fanin)
}

// CopyGates declares every gate of c but its inputs, in ID order, naming
// the net of each gate id rename(id). It calls rename once per gate it
// names, however many gates read that net.
func (b *Builder) CopyGates(c *Circuit, rename func(GateID) string) {
	nets := make([]int32, len(c.gates)) // net number + 1 of each renamed gate
	net := func(id GateID) GateID {
		if nets[id] == 0 {
			nets[id] = b.net(rename(id)) + 1
		}
		return GateID(nets[id] - 1)
	}
	b.decls = slices.Grow(b.decls, len(c.gates))
	for i := range c.gates {
		if g := &c.gates[i]; g.Type != Input {
			pin := len(b.pins)
			for _, f := range g.Fanin {
				b.pins = append(b.pins, net(f))
			}
			b.decls = append(b.decls, decl{kind: BenchGate, typ: g.Type, net: int32(net(g.ID)), pin: int32(pin), n: int32(len(g.Fanin))})
		}
	}
}

// BuildBench builds the circuit of scanned .bench statements, numbering
// gates as Builder documents. Errors come in a fixed order: unknown gate
// types, duplicate inputs, duplicate gates, bad DFFs, the first gate
// AddGate rejects in insertion order, undriven nets, combinational
// cycles, unknown DFF fanin, unknown outputs.
func BuildBench(name string, stmts []BenchStmt) (*Circuit, error) {
	b := NewBuilder(name)
	for i := range stmts {
		st := &stmts[i]
		if st.Kind == BenchGate && !st.TypeKnown {
			return nil, benchErrorf(name, int32(st.Line), "unknown gate type %q", st.TypeName)
		}
		b.declare(st.Kind, st.Line, st.Name, st.Type, st.Fanin)
	}
	return b.Build()
}

// Build returns the finalized circuit, or the first error in BuildBench's
// order.
func (b *Builder) Build() (*Circuit, error) {
	name, nm := b.name, b.nets
	id := make([]GateID, len(nm)) // gate ID of each net, once added
	drv := make([]int32, len(nm)) // the gate declaring each net
	for k := range id {
		id[k], drv[k] = InvalidGate, -1
	}
	c := &Circuit{Name: name, gates: make([]Gate, 0, len(b.decls))}
	for _, d := range b.decls {
		if d.kind == BenchInput {
			if err := checkGate(nm[d.net], Input, 0, id[d.net] >= 0); err != nil {
				return nil, benchErrorf(name, 0, "%w", err)
			}
			id[d.net] = c.add(nm[d.net], Input, nil)
		}
	}
	gates, names := make([]decl, 0, len(b.decls)), make([]string, 0, len(b.decls))
	for _, d := range b.decls {
		if d.kind != BenchGate {
			continue
		} else if drv[d.net] >= 0 {
			return nil, benchErrorf(name, d.line, "duplicate definition of %q", nm[d.net])
		}
		drv[d.net] = int32(len(gates))
		gates, names = append(gates, d), append(names, nm[d.net])
	}
	// DFF fanin does not gate insertion order (it may close a sequential
	// loop): DFFs go in first, their fanin pin patched at the end.
	for _, d := range gates {
		switch {
		case d.typ != DFF:
		case id[d.net] >= 0:
			return nil, benchErrorf(name, d.line, "duplicate net name %q", nm[d.net])
		case d.n != 1:
			return nil, benchErrorf(name, d.line, "DFF %q must have exactly one fanin", nm[d.net])
		default:
			id[d.net] = c.add(nm[d.net], DFF, b.fanin(d))
		}
	}
	// A fanin naming an input or DFF is resolved already; one naming no
	// declared net is undriven and never resolves.
	var undriven []string
	deps, flat := make([][]int32, len(gates)), make([]int32, 0, len(b.pins))
	for i, d := range gates {
		start := len(flat)
		for _, f := range b.fanin(d) {
			if d.typ != DFF && id[f] < 0 {
				if drv[f] < 0 {
					undriven = append(undriven, nm[f])
				}
				flat = append(flat, drv[f])
			}
		}
		deps[i] = flat[start:]
	}
	round := Rounds(names, deps)
	order := make([]int32, 0, len(gates))
	for i, d := range gates {
		if round[i] > 0 && d.typ != DFF {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(x, y int32) int {
		if r := cmp.Compare(round[x], round[y]); r != 0 {
			return r
		}
		return strings.Compare(names[x], names[y])
	})
	for _, i := range order {
		d := gates[i]
		if err := checkGate(names[i], d.typ, int(d.n), id[d.net] >= 0); err != nil {
			return nil, benchErrorf(name, d.line, "%w", err)
		}
		fanin := b.fanin(d)
		for k, f := range fanin {
			fanin[k] = id[f] // the pins become the gate's Fanin
		}
		id[d.net] = c.add(names[i], d.typ, fanin)
	}
	if len(undriven) > 0 {
		slices.Sort(undriven)
		return nil, benchErrorf(name, 0, "undriven nets (referenced but never defined): %s",
			strings.Join(slices.Compact(undriven), ", "))
	}
	if slices.Contains(round, 0) {
		// Every reference resolves, so the stall is a combinational cycle:
		// report one concrete path through the stuck (never added) gates.
		stuck := map[string][]string{}
		for i, d := range gates {
			for _, f := range b.fanin(d) {
				if round[i] == 0 && drv[f] >= 0 && round[drv[f]] == 0 {
					stuck[names[i]] = append(stuck[names[i]], nm[f])
				}
			}
		}
		return nil, benchErrorf(name, 0, "combinational cycle: %s", strings.Join(FindCycle(stuck), " -> "))
	}
	for _, d := range gates {
		if d.typ != DFF {
			continue
		} else if f := b.pins[d.pin]; id[f] < 0 {
			return nil, benchErrorf(name, d.line, "DFF references unknown net %q", nm[f])
		} else {
			b.pins[d.pin] = id[f]
		}
	}
	for _, d := range b.decls {
		if d.kind != BenchOutput {
			continue
		} else if id[d.net] < 0 {
			return nil, benchErrorf(name, 0, "OUTPUT references unknown net %q", nm[d.net])
		} else if err := c.MarkOutput(id[d.net]); err != nil {
			return nil, benchErrorf(name, 0, "%w", err)
		}
	}
	// Every net named so far drives a gate now: the name index becomes
	// the circuit's.
	for n, k := range b.index {
		b.index[n] = id[k]
	}
	c.byName, b.index = b.index, nil
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// fanin returns the pins of declaration d.
func (b *Builder) fanin(d decl) []GateID { return b.pins[d.pin : d.pin+d.n : d.pin+d.n] }

// benchErrorf formats a build error in the parser's "bench file[:line]"
// style; line 0 means no position.
func benchErrorf(name string, line int32, format string, args ...any) error {
	if line > 0 {
		name = fmt.Sprintf("%s:%d", name, line)
	}
	return fmt.Errorf("bench %s: "+format, append([]any{name}, args...)...)
}

// Rounds computes in one Kahn pass the round in which a worklist sweeping
// the pending nodes of a dependency graph by name, round after round,
// resolves each node: R(k) = max(1, max over d in deps[k] of R(d) +
// [names[d] > names[k]]). A negative entry in deps[k] never resolves;
// nodes on or behind a cycle or such an entry get 0.
func Rounds(names []string, deps [][]int32) []int32 {
	n := len(names)
	off, succ := invert(n, func(k int) []int32 { return deps[k] })
	indeg := make([]int32, n)
	queue := make([]int32, 0, n)
	for k, ds := range deps {
		indeg[k] = int32(len(ds))
		if len(ds) == 0 {
			queue = append(queue, int32(k))
		}
	}
	round := make([]int32, n)
	for h := 0; h < len(queue); h++ {
		d := queue[h]
		round[d] = max(round[d], 1)
		for _, s := range succ[off[d]:off[d+1]] {
			r := round[d]
			if names[d] > names[s] {
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
