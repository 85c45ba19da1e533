package netlist

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// parseBenchRounds is the sorted-rounds parser that Builder replaced, kept
// as the oracle for its gate order and error texts: every round it sorts
// the pending gate names and inserts each gate whose fanin already exists,
// until a round makes no progress. Quadratic on a reverse-named chain, so
// only small inputs go through it.
func parseBenchRounds(name, src string) (*Circuit, error) {
	stmts, serrs, err := ScanBenchStmts(name, strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	if len(serrs) > 0 {
		return nil, serrs[0]
	}

	type protoGate struct {
		name  string
		typ   GateType
		fanin []string
		line  int
	}
	var (
		protos  []protoGate
		inputs  []string
		outputs []string
	)
	for _, st := range stmts {
		switch st.Kind {
		case BenchInput:
			inputs = append(inputs, st.Name)
		case BenchOutput:
			outputs = append(outputs, st.Name)
		case BenchGate:
			if !st.TypeKnown {
				return nil, fmt.Errorf("bench %s:%d: unknown gate type %q", name, st.Line, st.TypeName)
			}
			protos = append(protos, protoGate{name: st.Name, typ: st.Type, fanin: st.Fanin, line: st.Line})
		}
	}

	c := New(name)
	for _, in := range inputs {
		if _, err := c.AddGate(in, Input); err != nil {
			return nil, fmt.Errorf("bench %s: %w", name, err)
		}
	}
	// Two-pass insertion to allow forward references: sort gates so that a
	// gate is added only after all of its fanin. Use iterative worklist.
	pending := make(map[string]protoGate, len(protos))
	for _, p := range protos {
		if _, dup := pending[p.name]; dup {
			return nil, fmt.Errorf("bench %s:%d: duplicate definition of %q", name, p.line, p.name)
		}
		pending[p.name] = p
	}
	// DFF fanin does not gate insertion order (it may close a sequential
	// loop), so DFFs are inserted in a final pass with placeholder fixup.
	// Strategy: first add all DFF gates with deferred fanin, then add
	// combinational gates in dependency order, then patch DFF fanin.
	type dffFix struct {
		id    GateID
		fanin string
		line  int
	}
	var fixes []dffFix
	for _, p := range protos {
		if p.typ != DFF {
			continue
		}
		// Temporarily create the DFF with a self-fanin placeholder; the
		// real fanin is patched after all gates exist.
		id, err := c.addDFFDeferred(p.name)
		if err != nil {
			return nil, fmt.Errorf("bench %s:%d: %w", name, p.line, err)
		}
		if len(p.fanin) != 1 {
			return nil, fmt.Errorf("bench %s:%d: DFF %q must have exactly one fanin", name, p.line, p.name)
		}
		fixes = append(fixes, dffFix{id: id, fanin: p.fanin[0], line: p.line})
		delete(pending, p.name)
	}
	// Kahn-style insertion of combinational gates.
	for len(pending) > 0 {
		progress := false
		// Deterministic order: sort pending names each round.
		names := make([]string, 0, len(pending))
		for n := range pending {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p := pending[n]
			ready := true
			fanin := make([]GateID, len(p.fanin))
			for i, fn := range p.fanin {
				id, ok := c.Lookup(fn)
				if !ok {
					ready = false
					break
				}
				fanin[i] = id
			}
			if !ready {
				continue
			}
			if _, err := c.AddGate(p.name, p.typ, fanin...); err != nil {
				return nil, fmt.Errorf("bench %s:%d: %w", name, p.line, err)
			}
			delete(pending, n)
			progress = true
		}
		if !progress {
			// Split the blame precisely instead of reporting every stuck
			// gate as "unresolved or cyclic": a net that neither the
			// circuit nor the pending set will ever define is undriven;
			// with every reference resolvable, the stall is a genuine
			// combinational cycle, reported with one concrete path.
			var undriven []string
			seen := map[string]bool{}
			for _, p := range pending {
				for _, fn := range p.fanin {
					if _, ok := c.Lookup(fn); ok {
						continue
					}
					if _, ok := pending[fn]; ok {
						continue
					}
					if !seen[fn] {
						seen[fn] = true
						undriven = append(undriven, fn)
					}
				}
			}
			if len(undriven) > 0 {
				sort.Strings(undriven)
				return nil, fmt.Errorf("bench %s: undriven nets (referenced but never defined): %s",
					name, strings.Join(undriven, ", "))
			}
			deps := make(map[string][]string, len(pending))
			for n, p := range pending {
				for _, fn := range p.fanin {
					if _, ok := pending[fn]; ok {
						deps[n] = append(deps[n], fn)
					}
				}
			}
			cycle := FindCycle(deps)
			return nil, fmt.Errorf("bench %s: combinational cycle: %s",
				name, strings.Join(cycle, " -> "))
		}
	}
	for _, f := range fixes {
		id, ok := c.Lookup(f.fanin)
		if !ok {
			return nil, fmt.Errorf("bench %s:%d: DFF references unknown net %q", name, f.line, f.fanin)
		}
		c.gates[f.id].Fanin = []GateID{id}
	}
	for _, out := range outputs {
		id, ok := c.Lookup(out)
		if !ok {
			return nil, fmt.Errorf("bench %s: OUTPUT references unknown net %q", name, out)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, fmt.Errorf("bench %s: %w", name, err)
		}
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// addDFFDeferred inserts a DFF whose fanin will be patched later, the
// oracle's way of closing sequential loops.
func (c *Circuit) addDFFDeferred(name string) (GateID, error) {
	if _, dup := c.byName[name]; dup {
		return InvalidGate, fmt.Errorf("duplicate net name %q", name)
	}
	id := c.add(name, DFF, []GateID{GateID(len(c.gates))})
	c.byName[name] = id
	return id, nil
}

// reverseChainBench is a NOT chain whose gate names sort against signal
// flow (n000000 = NOT(n000001), ...), the worst case of the sorted-rounds
// oracle: one gate per round, so its cost grows with gates squared.
func reverseChainBench(gates int) string {
	var b strings.Builder
	b.WriteString("INPUT(a)\nOUTPUT(n000000)\n")
	for i := 0; i < gates-1; i++ {
		fmt.Fprintf(&b, "n%06d = NOT(n%06d)\n", i, i+1)
	}
	fmt.Fprintf(&b, "n%06d = NOT(a)\n", gates-1)
	return b.String()
}

// TestReverseNamedChain parses a 50,000-gate reverse-named chain against a
// timer, so a superlinear parser fails the test instead of hanging it.
func TestReverseNamedChain(t *testing.T) {
	src := reverseChainBench(50000)
	done := make(chan error, 1)
	go func() {
		c, err := ParseBenchString("chain", src)
		if err == nil && c.Depth() != 50000 {
			err = fmt.Errorf("depth %d, want 50000", c.Depth())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ParseBenchString took over 5 s on a 50,000-gate chain")
	}
}

// TestBuilderDirect builds c17 through the Builder API, declarations
// shuffled, and checks it equals the parsed netlist gate for gate.
func TestBuilderDirect(t *testing.T) {
	b := NewBuilder("c17")
	b.Gate("G23", Nand, "G16", "G19")
	for _, in := range []string{"G1", "G2", "G3", "G6", "G7"} {
		b.Input(in)
	}
	b.Gate("G22", Nand, "G10", "G16")
	b.Output("G22")
	b.Output("G23")
	b.Gate("G19", Nand, "G11", "G7")
	b.Gate("G16", Nand, "G2", "G11")
	b.Gate("G11", Nand, "G3", "G6")
	b.Gate("G10", Nand, "G1", "G3")
	got, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseBenchString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	if BenchString(got) != BenchString(want) {
		t.Errorf("built:\n%s\nparsed:\n%s", BenchString(got), BenchString(want))
	}
}
