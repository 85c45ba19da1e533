package lint

import (
	"os"
	"strings"

	"repro/internal/netlist"
)

// Options tunes the threshold rules. The zero value disables every
// threshold; DefaultOptions is what soclint and /v1/lint use.
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

// DefaultOptions returns the thresholds used by cmd/soclint and /v1/lint:
// a generous fanout bound and SCOAP checking off (it is opt-in
// via the CLI's -scoap-limit, since healthy large circuits legitimately
// contain hard nets).
func DefaultOptions() Options {
	return Options{MaxFanout: 256}
}

// CheckBenchFile lints a .bench netlist file from disk. It also returns
// the circuit the source built, nil when the source has a structural
// problem, so a caller that goes on to analyze the netlist reads it once.
func CheckBenchFile(path string, opt Options) (*Report, *netlist.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	r, c := checkBench(path, string(data), opt)
	return r, c, nil
}

// benchRule maps each kind of problem netlist.ReadBench finds to its rule.
var benchRule = [...]string{
	netlist.Syntax:              "NL009",
	netlist.UnknownType:         "NL008",
	netlist.DuplicateDefinition: "NL006",
	netlist.MultiplyDriven:      "NL003",
	netlist.Arity:               "NL007",
	netlist.Undriven:            "NL002",
	netlist.Cycle:               "NL001",
	netlist.DuplicateOutput:     "NL006",
}

// CheckBench lints .bench source text. Unlike netlist.ParseBench, which
// fails on any problem, the linter reports every problem the shared reader
// finds (NL001–NL003, NL006–NL009), each at its source line, and on a
// source with none runs the circuit-level rules (NL004, NL005, NL010,
// NL011, NL012, and with Options.SAT the formal NL013/NL014) on the
// circuit it builds.
func CheckBench(file, src string, opt Options) *Report {
	r, _ := checkBench(file, src, opt)
	return r
}

// checkBench is CheckBench, also returning the circuit the source built.
func checkBench(file, src string, opt Options) (*Report, *netlist.Circuit) {
	r := &Report{}
	s, err := netlist.ReadBench(file, strings.NewReader(src))
	if err != nil {
		r.Add("NL009", Pos{File: file}, "", "reading source: %v", err)
		return r, nil
	}
	for _, p := range s.Problems {
		r.Add(benchRule[p.Kind], Pos{File: file, Line: p.Line}, p.Subject, "%s", p.Msg)
	}
	if s.Circuit != nil {
		r.Merge(checkCircuit(file, s.Circuit, s.Lines, opt))
	}
	r.Sort()
	return r, s.Circuit
}

// checkCircuit runs the circuit-level rules on a finalized circuit,
// placing each finding at the line lines gives its gate.
func checkCircuit(file string, c *netlist.Circuit, lines []int, opt Options) *Report {
	r := &Report{}
	pos := func(id netlist.GateID) Pos { return Pos{File: file, Line: lines[id]} }
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
			r.Add("NL004", pos(id), g.Name,
				"dead logic: %v gate %q is unreachable from every primary input", g.Type, g.Name)
		}
		if g.Type == netlist.Input {
			if len(c.Fanout(id)) == 0 && !observed[id] {
				r.Add("NL012", pos(id), g.Name,
					"unused primary input %q: drives nothing and is not an output", g.Name)
			}
			continue
		}
		if !observed[id] {
			r.Add("NL005", pos(id), g.Name,
				"unobservable logic: %v gate %q reaches no primary output or scan cell", g.Type, g.Name)
		}
		if opt.MaxFanout > 0 && len(c.Fanout(id)) > opt.MaxFanout {
			r.Add("NL010", pos(id), g.Name,
				"net %q fans out to %d gates (threshold %d)", g.Name, len(c.Fanout(id)), opt.MaxFanout)
		}
	}
	// Inputs can trip the fanout threshold too.
	for _, id := range c.Inputs() {
		g := c.Gate(id)
		if opt.MaxFanout > 0 && len(c.Fanout(id)) > opt.MaxFanout {
			r.Add("NL010", pos(id), g.Name,
				"net %q fans out to %d gates (threshold %d)", g.Name, len(c.Fanout(id)), opt.MaxFanout)
		}
	}

	if opt.SAT {
		r.Merge(checkSAT(c, pos))
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
				r.Add("NL011", pos(id), g.Name,
					"hard-to-test net %q: SCOAP difficulty SA0=%s SA1=%s (threshold %d)",
					g.Name, scoapString(d0), scoapString(d1), opt.SCOAPLimit)
			}
		}
	}
	return r
}
