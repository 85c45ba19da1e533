package lint

import (
	"os"
	"sort"
	"strings"

	"repro/internal/netlist"
)

// Options tunes the threshold rules. The zero value disables every
// threshold; DefaultOptions is what the CLI and preflights use.
type Options struct {
	// MaxFanout triggers NL010 for any net driving more than this many
	// gates. 0 disables the rule.
	MaxFanout int
	// SCOAPLimit triggers NL011 for any net whose worst-case stuck-at
	// testability (controllability of the excitation value plus
	// observability) reaches this value. 0 disables the rule; nets with
	// infinite SCOAP values always trip it when enabled.
	SCOAPLimit int
	// SAT enables the formal rules NL013 (provably-constant net) and
	// NL014 (provably-untestable fault). Opt-in: each finding is an exact
	// SAT proof, one solve per net polarity and one miter per collapsed
	// fault, which is affordable on fixtures but not free on large
	// netlists.
	SAT bool
}

// DefaultOptions returns the thresholds used by cmd/soclint and the -lint
// preflights: a generous fanout bound and SCOAP checking off (it is opt-in
// via the CLI's -scoap-limit, since healthy large circuits legitimately
// contain hard nets).
func DefaultOptions() Options {
	return Options{MaxFanout: 256}
}

// CheckBenchFile lints a .bench netlist file from disk.
func CheckBenchFile(path string, opt Options) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return CheckBench(path, string(data), opt), nil
}

// CheckBench lints .bench source text. It works in two layers: a lenient
// source-level pass over the raw statements (so one syntax error does not
// hide the next — rules NL001–NL003, NL006–NL009), and, when the source is
// structurally buildable, a circuit-level pass (CheckCircuit) for the
// reachability and threshold rules.
func CheckBench(file, src string, opt Options) *Report {
	r := &Report{}
	stmts, serrs, err := netlist.ScanBenchStmts(file, strings.NewReader(src))
	if err != nil {
		r.Add("NL009", Pos{File: file}, "", "reading source: %v", err)
		return r
	}
	for _, se := range serrs {
		r.Add("NL009", Pos{File: file, Line: se.Line}, "", "%s", se.Msg)
	}

	type def struct {
		line  int
		input bool // defined by INPUT(...)
		stmt  netlist.BenchStmt
	}
	defs := map[string]def{}    // first definition wins
	outputs := map[string]int{} // OUTPUT name -> first line
	var defOrder []string       // definition order for deterministic walks
	for _, st := range stmts {
		switch st.Kind {
		case netlist.BenchOutput:
			if _, ok := outputs[st.Name]; !ok {
				outputs[st.Name] = st.Line
			}
			continue
		case netlist.BenchInput, netlist.BenchGate:
		default:
			continue
		}
		isInput := st.Kind == netlist.BenchInput
		if prev, dup := defs[st.Name]; dup {
			if prev.input != isInput {
				r.Add("NL003", Pos{File: file, Line: st.Line}, st.Name,
					"net %q is multiply driven: primary input (line %d) and gate output (line %d)",
					st.Name, min(prev.line, st.Line), max(prev.line, st.Line))
			} else {
				r.Add("NL006", Pos{File: file, Line: st.Line}, st.Name,
					"duplicate definition of net %q (first defined at line %d)", st.Name, prev.line)
			}
			continue
		}
		defs[st.Name] = def{line: st.Line, input: isInput, stmt: st}
		defOrder = append(defOrder, st.Name)
		if st.Kind == netlist.BenchGate {
			if !st.TypeKnown {
				r.Add("NL008", Pos{File: file, Line: st.Line}, st.Name,
					"unknown gate type %q", st.TypeName)
				continue
			}
			n := len(st.Fanin)
			if lo := st.Type.MinFanin(); n < lo {
				r.Add("NL007", Pos{File: file, Line: st.Line}, st.Name,
					"gate %q (%v) needs at least %d fanin, got %d", st.Name, st.Type, lo, n)
			} else if hi := st.Type.MaxFanin(); hi >= 0 && n > hi {
				r.Add("NL007", Pos{File: file, Line: st.Line}, st.Name,
					"gate %q (%v) allows at most %d fanin, got %d", st.Name, st.Type, hi, n)
			}
		}
	}

	// NL002: nets referenced (as fanin or OUTPUT) but never defined.
	undriven := map[string]bool{}
	for _, name := range defOrder {
		d := defs[name]
		for _, fn := range d.stmt.Fanin {
			if _, ok := defs[fn]; !ok && !undriven[fn] {
				undriven[fn] = true
				r.Add("NL002", Pos{File: file, Line: d.line}, fn,
					"undriven net %q referenced by gate %q (defined nowhere)", fn, name)
			}
		}
	}
	outNames := make([]string, 0, len(outputs))
	for n := range outputs {
		outNames = append(outNames, n)
	}
	sort.Strings(outNames)
	for _, n := range outNames {
		if _, ok := defs[n]; !ok && !undriven[n] {
			undriven[n] = true
			r.Add("NL002", Pos{File: file, Line: outputs[n]}, n,
				"undriven net %q declared OUTPUT but defined nowhere", n)
		}
	}

	// NL001: combinational cycles. Inputs, DFFs (whose fanin edges cut
	// cycles), constants, unknown types and undriven names count as
	// resolved; the gates netlist.Rounds leaves at 0 sit on or behind a
	// cycle, and FindCycle walks the graph they span.
	var pending []string
	node := map[string]int32{}
	for _, name := range defOrder {
		if d := defs[name]; !d.input && d.stmt.TypeKnown && d.stmt.Type != netlist.DFF && d.stmt.Type.MinFanin() > 0 {
			node[name] = int32(len(pending))
			pending = append(pending, name)
		}
	}
	deps := make([][]int32, len(pending))
	for k, name := range pending {
		for _, fn := range defs[name].stmt.Fanin {
			if j, ok := node[fn]; ok {
				deps[k] = append(deps[k], j)
			}
		}
	}
	round := netlist.Rounds(pending, deps)
	stuck := map[string][]string{}
	for k, ds := range deps {
		for _, j := range ds {
			if round[k] == 0 && round[j] == 0 {
				stuck[pending[k]] = append(stuck[pending[k]], pending[j])
			}
		}
	}
	if cycle := netlist.FindCycle(stuck); cycle != nil {
		path := strings.Join(cycle, " -> ")
		r.Add("NL001", Pos{File: file, Line: defs[cycle[0]].line}, path, "combinational cycle: %s", path)
	}

	if r.HasErrors() {
		r.Sort()
		return r
	}

	// The source is structurally clean: build the circuit from the scanned
	// statements and run the reachability/threshold rules with source
	// positions attached.
	c, err := netlist.BuildBench(file, stmts)
	if err != nil {
		// Unreachable when the source-level pass is complete; keep the
		// finding rather than losing it if the two layers ever diverge.
		r.Add("NL009", Pos{File: file}, "", "parse: %v", err)
		r.Sort()
		return r
	}
	lines := make(map[string]int, len(defs))
	for n, d := range defs {
		lines[n] = d.line
	}
	r.Merge(checkCircuit(file, c, lines, opt))
	r.Sort()
	return r
}

// CheckCircuit runs the circuit-level DRC rules (NL004, NL005, NL010,
// NL011, NL012, and with Options.SAT the formal NL013/NL014) on a
// finalized circuit — the entry point for programmatically built
// netlists, where no source positions exist.
func CheckCircuit(c *netlist.Circuit, opt Options) *Report {
	r := checkCircuit(c.Name, c, nil, opt)
	r.Sort()
	return r
}

func checkCircuit(file string, c *netlist.Circuit, lines map[string]int, opt Options) *Report {
	r := &Report{}
	pos := func(name string) Pos { return Pos{File: file, Line: lines[name]} }
	n := c.NumGates()

	// NL004: forward influence from primary inputs and constants. A gate
	// is live if any fanin is live; DFFs pass influence from data input to
	// output. Gates no primary input can ever influence are dead — only
	// the scan chain can set them.
	live := make([]bool, n)
	var queue []netlist.GateID
	for id := netlist.GateID(0); int(id) < n; id++ {
		t := c.Gate(id).Type
		if t == netlist.Input || t == netlist.Const0 || t == netlist.Const1 {
			live[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, s := range c.Fanout(id) {
			if !live[s] {
				live[s] = true
				queue = append(queue, s)
			}
		}
	}

	// NL005: backward reach from the observation sites — primary outputs
	// and DFF data inputs (scan capture). A gate outside this closure
	// computes a value nothing can ever see.
	observed := make([]bool, n)
	queue = queue[:0]
	seed := func(id netlist.GateID) {
		if !observed[id] {
			observed[id] = true
			queue = append(queue, id)
		}
	}
	for _, id := range c.Outputs() {
		seed(id)
	}
	for _, d := range c.DFFs() {
		seed(c.Gate(d).Fanin[0])
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, f := range c.Gate(id).Fanin {
			seed(f)
		}
	}

	for id := netlist.GateID(0); int(id) < n; id++ {
		g := c.Gate(id)
		if !live[id] {
			r.Add("NL004", pos(g.Name), g.Name,
				"dead logic: %v gate %q is unreachable from every primary input", g.Type, g.Name)
		}
		if g.Type == netlist.Input {
			if len(c.Fanout(id)) == 0 && !observed[id] {
				r.Add("NL012", pos(g.Name), g.Name,
					"unused primary input %q: drives nothing and is not an output", g.Name)
			}
			continue
		}
		if !observed[id] {
			r.Add("NL005", pos(g.Name), g.Name,
				"unobservable logic: %v gate %q reaches no primary output or scan cell", g.Type, g.Name)
		}
		if opt.MaxFanout > 0 && len(c.Fanout(id)) > opt.MaxFanout {
			r.Add("NL010", pos(g.Name), g.Name,
				"net %q fans out to %d gates (threshold %d)", g.Name, len(c.Fanout(id)), opt.MaxFanout)
		}
	}
	// Inputs can trip the fanout threshold too.
	for _, id := range c.Inputs() {
		g := c.Gate(id)
		if opt.MaxFanout > 0 && len(c.Fanout(id)) > opt.MaxFanout {
			r.Add("NL010", pos(g.Name), g.Name,
				"net %q fans out to %d gates (threshold %d)", g.Name, len(c.Fanout(id)), opt.MaxFanout)
		}
	}

	if opt.SAT {
		r.Merge(checkSAT(file, c, lines))
	}

	if opt.SCOAPLimit > 0 {
		sc := ComputeSCOAP(c)
		for id := netlist.GateID(0); int(id) < n; id++ {
			g := c.Gate(id)
			d0, d1 := sc.Difficulty(id, 0), sc.Difficulty(id, 1)
			worst := d0
			if d1 > worst {
				worst = d1
			}
			if worst >= ScoapV(opt.SCOAPLimit) {
				r.Add("NL011", pos(g.Name), g.Name,
					"hard-to-test net %q: SCOAP difficulty SA0=%s SA1=%s (threshold %d)",
					g.Name, scoapString(d0), scoapString(d1), opt.SCOAPLimit)
			}
		}
	}
	return r
}
