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
type Builder struct {
	name  string
	stmts []BenchStmt
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder { return &Builder{name: name} }

// Input declares a primary input.
func (b *Builder) Input(name string) {
	b.stmts = append(b.stmts, BenchStmt{Kind: BenchInput, Name: name})
}

// Output declares the net called name a primary output.
func (b *Builder) Output(name string) {
	b.stmts = append(b.stmts, BenchStmt{Kind: BenchOutput, Name: name})
}

// Gate declares a gate of type t (any type but Input) driving the net
// called name. The builder keeps the fanin slice; do not modify it.
func (b *Builder) Gate(name string, t GateType, fanin ...string) {
	b.stmts = append(b.stmts, BenchStmt{Kind: BenchGate, Name: name, Type: t, TypeKnown: true, Fanin: fanin})
}

// CopyGates declares every gate of c but its inputs, in ID order, naming
// the net of each gate id rename(id).
func (b *Builder) CopyGates(c *Circuit, rename func(GateID) string) {
	for _, g := range c.gates {
		if g.Type != Input {
			fanin := make([]string, len(g.Fanin))
			for k, f := range g.Fanin {
				fanin[k] = rename(f)
			}
			b.Gate(rename(g.ID), g.Type, fanin...)
		}
	}
}

// Build returns the finalized circuit, or BuildBench's first error.
func (b *Builder) Build() (*Circuit, error) { return BuildBench(b.name, b.stmts) }

// BuildBench builds the circuit of scanned .bench statements, numbering
// gates as Builder documents. Errors come in a fixed order: unknown gate
// types, duplicate inputs, duplicate gates, bad DFFs, the first gate
// AddGate rejects in insertion order, undriven nets, combinational
// cycles, unknown DFF fanin, unknown outputs.
func BuildBench(name string, stmts []BenchStmt) (*Circuit, error) {
	var gates []*BenchStmt
	for i := range stmts {
		if st := &stmts[i]; st.Kind == BenchGate && !st.TypeKnown {
			return nil, benchErrorf(name, st.Line, "unknown gate type %q", st.TypeName)
		} else if st.Kind == BenchGate {
			gates = append(gates, st)
		}
	}
	c := New(name)
	for _, st := range stmts {
		if st.Kind != BenchInput {
			continue
		}
		if _, err := c.AddGate(st.Name, Input); err != nil {
			return nil, benchErrorf(name, 0, "%w", err)
		}
	}
	index := make(map[string]int32, len(gates))
	names := make([]string, len(gates))
	for i, g := range gates {
		if _, dup := index[g.Name]; dup {
			return nil, benchErrorf(name, g.Line, "duplicate definition of %q", g.Name)
		}
		index[g.Name], names[i] = int32(i), g.Name
	}
	// DFF fanin does not gate insertion order (it may close a sequential
	// loop): DFFs go in first with a placeholder fanin, patched at the end.
	for _, g := range gates {
		if g.Type != DFF {
			continue
		}
		if _, err := c.addDFFDeferred(g.Name); err != nil {
			return nil, benchErrorf(name, g.Line, "%w", err)
		}
		if len(g.Fanin) != 1 {
			return nil, benchErrorf(name, g.Line, "DFF %q must have exactly one fanin", g.Name)
		}
	}
	// A fanin naming an input or DFF is resolved already; one naming no
	// declared net is undriven and never resolves.
	var undriven []string
	deps := make([][]int32, len(gates))
	for i, g := range gates {
		for _, fn := range g.Fanin {
			if _, ok := c.Lookup(fn); g.Type != DFF && !ok {
				j, ok := index[fn]
				if !ok {
					j, undriven = -1, append(undriven, fn)
				}
				deps[i] = append(deps[i], j)
			}
		}
	}
	round := Rounds(names, deps)
	var order []int32
	for i, g := range gates {
		if round[i] > 0 && g.Type != DFF {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(x, y int32) int {
		return cmp.Or(cmp.Compare(round[x], round[y]), strings.Compare(names[x], names[y]))
	})
	for _, i := range order {
		g := gates[i]
		fanin := make([]GateID, len(g.Fanin))
		for k, fn := range g.Fanin {
			fanin[k], _ = c.Lookup(fn)
		}
		if _, err := c.AddGate(g.Name, g.Type, fanin...); err != nil {
			return nil, benchErrorf(name, g.Line, "%w", err)
		}
	}
	if len(undriven) > 0 {
		slices.Sort(undriven)
		return nil, benchErrorf(name, 0, "undriven nets (referenced but never defined): %s",
			strings.Join(slices.Compact(undriven), ", "))
	}
	if slices.Contains(round, 0) {
		// Every reference resolves, so the stall is a combinational cycle:
		// report one concrete path through the stuck gates.
		stuck := map[string][]string{}
		for i, g := range gates {
			for _, fn := range g.Fanin {
				if j, ok := index[fn]; ok && round[i] == 0 && round[j] == 0 {
					stuck[g.Name] = append(stuck[g.Name], fn)
				}
			}
		}
		return nil, benchErrorf(name, 0, "combinational cycle: %s", strings.Join(FindCycle(stuck), " -> "))
	}
	for _, g := range gates {
		if g.Type == DFF {
			id, ok := c.Lookup(g.Fanin[0])
			if !ok {
				return nil, benchErrorf(name, g.Line, "DFF references unknown net %q", g.Fanin[0])
			}
			c.gates[c.byName[g.Name]].Fanin[0] = id
		}
	}
	for _, st := range stmts {
		if st.Kind != BenchOutput {
			continue
		}
		id, ok := c.Lookup(st.Name)
		if !ok {
			return nil, benchErrorf(name, 0, "OUTPUT references unknown net %q", st.Name)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, benchErrorf(name, 0, "%w", err)
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// benchErrorf formats a build error in the parser's "bench file[:line]"
// style; line 0 means no position.
func benchErrorf(name string, line int, format string, args ...any) error {
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
	indeg := make([]int32, len(names))
	succ := make([][]int32, len(names))
	var queue []int32
	for k, ds := range deps {
		indeg[k] = int32(len(ds))
		for _, d := range ds {
			if d >= 0 {
				succ[d] = append(succ[d], int32(k))
			}
		}
		if len(ds) == 0 {
			queue = append(queue, int32(k))
		}
	}
	round := make([]int32, len(names))
	for h := 0; h < len(queue); h++ {
		d := queue[h]
		round[d] = max(round[d], 1)
		for _, s := range succ[d] {
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

// addDFFDeferred inserts a DFF whose fanin will be patched later.
func (c *Circuit) addDFFDeferred(name string) (GateID, error) {
	if _, dup := c.byName[name]; dup {
		return InvalidGate, fmt.Errorf("duplicate net name %q", name)
	}
	id := GateID(len(c.gates))
	c.gates = append(c.gates, Gate{ID: id, Type: DFF, Name: name, Fanin: []GateID{id}})
	c.byName[name] = id
	c.dffs = append(c.dffs, id)
	return id, nil
}
