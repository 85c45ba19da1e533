package netlist

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchStmt is one statement of a .bench source as the scanner declared
// it: an INPUT, an OUTPUT or a gate, with the type token as written.
type benchStmt struct {
	kind     stmtKind
	line     int
	name     string
	typ      GateType
	typeName string
	fanin    []string
}

// scanStmts scans src into a builder and reads its declarations back as
// statements, in source order, with the syntax problems.
func scanStmts(name, src string) ([]benchStmt, []Problem, error) {
	b := NewBuilder(name)
	serrs, err := b.scan(strings.NewReader(src))
	var stmts []benchStmt
	for i, d := range b.decls {
		st := benchStmt{kind: d.kind, line: int(d.line), name: b.nets[d.net], typ: d.typ, typeName: b.typeNames[int32(i)]}
		for _, f := range b.fanin(d) {
			st.fanin = append(st.fanin, b.nets[f])
		}
		stmts = append(stmts, st)
	}
	return stmts, serrs, err
}

// parseBenchRounds is the sorted-rounds parser that Builder replaced, kept
// as the oracle for its gate order and its first error: every round it
// sorts the pending gate names and inserts each gate whose fanin already
// exists, until a round makes no progress. Quadratic on a reverse-named
// chain, so only small inputs go through it.
func parseBenchRounds(name, src string) (*Circuit, error) {
	stmts, serrs, err := scanStmts(name, src)
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
	type port struct {
		name string
		line int
	}
	var (
		protos  []protoGate
		inputs  []port
		outputs []port
	)
	for _, st := range stmts {
		switch st.kind {
		case benchInput:
			inputs = append(inputs, port{st.name, st.line})
		case benchOutput:
			outputs = append(outputs, port{st.name, st.line})
		case benchGate:
			if !st.typ.Valid() {
				return nil, fmt.Errorf("bench %s:%d: unknown gate type %q", name, st.line, st.typeName)
			}
			protos = append(protos, protoGate{name: st.name, typ: st.typ, fanin: st.fanin, line: st.line})
		}
	}

	c := New(name)
	inLine := map[string]int{} // the line of each net's first INPUT
	for _, in := range inputs {
		if first, dup := inLine[in.name]; dup {
			return nil, fmt.Errorf("bench %s:%d: duplicate definition of net %q (first defined at line %d)",
				name, in.line, in.name, first)
		}
		inLine[in.name] = in.line
		if _, err := c.AddGate(in.name, Input); err != nil {
			return nil, fmt.Errorf("bench %s: %w", name, err)
		}
	}
	multiplyDriven := func(p protoGate) error {
		in := inLine[p.name]
		return fmt.Errorf("bench %s:%d: net %q is multiply driven: primary input (line %d) and gate output (line %d)",
			name, max(in, p.line), p.name, in, p.line)
	}
	// referencedBy names the first gate whose fanin reads net.
	referencedBy := func(net string) protoGate {
		for _, p := range protos {
			if slices.Contains(p.fanin, net) {
				return p
			}
		}
		return protoGate{}
	}
	// Two-pass insertion to allow forward references: sort gates so that a
	// gate is added only after all of its fanin. Use iterative worklist.
	pending := make(map[string]protoGate, len(protos))
	for _, p := range protos {
		if first, dup := pending[p.name]; dup {
			return nil, fmt.Errorf("bench %s:%d: duplicate definition of net %q (first defined at line %d)",
				name, p.line, p.name, first.line)
		}
		pending[p.name] = p
	}
	// DFF fanin does not gate insertion order (it may close a sequential
	// loop), so DFFs are inserted in a final pass with placeholder fixup.
	// Strategy: first add all DFF gates with deferred fanin, then add
	// combinational gates in dependency order, then patch DFF fanin.
	type dffFix struct {
		id    GateID
		name  string
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
			return nil, multiplyDriven(p)
		}
		switch n := len(p.fanin); {
		case n == 0:
			return nil, fmt.Errorf("bench %s:%d: gate %q (DFF) needs at least 1 fanin, got 0", name, p.line, p.name)
		case n > 1:
			return nil, fmt.Errorf("bench %s:%d: gate %q (DFF) allows at most 1 fanin, got %d", name, p.line, p.name, n)
		}
		fixes = append(fixes, dffFix{id: id, name: p.name, fanin: p.fanin[0], line: p.line})
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
			if _, isInput := inLine[p.name]; isInput {
				return nil, multiplyDriven(p)
			}
			if _, err := c.AddGate(p.name, p.typ, fanin...); err != nil {
				return nil, fmt.Errorf("bench %s:%d: %s", name, p.line, strings.TrimPrefix(err.Error(), "netlist: "))
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
				p := referencedBy(undriven[0])
				return nil, fmt.Errorf("bench %s:%d: undriven net %q referenced by gate %q (defined nowhere)",
					name, p.line, undriven[0], p.name)
			}
			// A fanin naming an input waits for no pending gate, even one
			// of the same name.
			deps := make(map[string][]string, len(pending))
			for n, p := range pending {
				for _, fn := range p.fanin {
					if _, ok := c.Lookup(fn); ok {
						continue
					}
					if _, ok := pending[fn]; ok {
						deps[n] = append(deps[n], fn)
					}
				}
			}
			cycle := findCycle(deps)
			return nil, fmt.Errorf("bench %s:%d: combinational cycle: %s",
				name, pending[cycle[0]].line, strings.Join(cycle, " -> "))
		}
	}
	for _, f := range fixes {
		id, ok := c.Lookup(f.fanin)
		if !ok {
			return nil, fmt.Errorf("bench %s:%d: undriven net %q referenced by gate %q (defined nowhere)",
				name, f.line, f.fanin, f.name)
		}
		c.gates[f.id].Fanin = []GateID{id}
	}
	outLine := map[string]int{} // the line of each net's first OUTPUT
	for _, out := range outputs {
		id, ok := c.Lookup(out.name)
		if !ok {
			return nil, fmt.Errorf("bench %s:%d: undriven net %q declared OUTPUT but defined nowhere",
				name, out.line, out.name)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, fmt.Errorf("bench %s:%d: duplicate OUTPUT declaration of net %q (first declared at line %d)",
				name, out.line, out.name, outLine[out.name])
		}
		outLine[out.name] = out.line
	}
	if err := c.Finalize(); err != nil {
		return nil, err
	}
	return c, nil
}

// addDFFDeferred inserts a DFF whose fanin will be patched later, the
// oracle's way of closing sequential loops.
func (c *Circuit) addDFFDeferred(name string) (GateID, error) {
	if _, dup := c.Lookup(name); dup {
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

// TestLookupConcurrent looks every name of a freshly built circuit up from
// several goroutines at once, the first lookups among them: the name index
// is made once, on first use, and must be safe to race for (go test -race).
func TestLookupConcurrent(t *testing.T) {
	c, err := ParseBenchString("chain", reverseChainBench(500))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := 0; id < c.NumGates(); id++ {
				name := c.Gate(GateID(id)).Name
				if got, ok := c.Lookup(name); !ok || got != GateID(id) {
					errs <- fmt.Errorf("Lookup(%q) = %d, %v, want %d", name, got, ok, id)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, ok := c.Lookup("nowhere"); ok {
		t.Error("Lookup found a net the circuit does not have")
	}
}

// TestSortKeyOrdersLikeCompare checks that where two names' sort keys
// differ, strings.Compare orders the names the same way: names shorter
// and longer than the 8-byte key, sharing prefixes, and holding NUL bytes.
func TestSortKeyOrdersLikeCompare(t *testing.T) {
	names := []string{"", "\x00", "\x00\x00", "a", "a\x00", "a\x00b", "ab", "abcdefgh", "abcdefgh\x00",
		"abcdefgh0", "abcdefgh1", "abcdefghi", "abcdefg", "abcdefg\x00", "abcdefg\x00z", "g10", "g9", "\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	for _, x := range names {
		for _, y := range names {
			kx, ky := sortKey(x), sortKey(y)
			if kx != ky && (kx < ky) != (strings.Compare(x, y) < 0) {
				t.Errorf("sortKey orders %q and %q against strings.Compare", x, y)
			}
		}
	}
}
