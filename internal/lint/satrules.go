package lint

import (
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/sat"
)

// checkSAT runs the SAT-backed rules over a finalized circuit: NL013 flags
// nets the solver proves constant under every fully specified stimulus,
// NL014 flags collapsed stuck-at faults whose good-vs-faulty miter is
// unsatisfiable — logic that is provably dead weight for any test set.
// Both are exact (no SCOAP-style approximation) and deterministic: the
// same netlist always yields the same findings in the same order.
func checkSAT(c *netlist.Circuit, pos func(netlist.GateID) Pos) *Report {
	r := &Report{}

	a := sat.NewAnalyzer(c)
	for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input, netlist.DFF:
			continue // value sources: free variables, never constant
		case netlist.Const0, netlist.Const1:
			continue // constant by declaration, not a finding
		}
		if val, constant := a.ConstantNet(id); constant {
			v := 0
			if val {
				v = 1
			}
			r.Add("NL013", pos(id), g.Name,
				"net %q is provably constant %d under every stimulus", g.Name, v)
		}
	}

	for _, f := range faults.CollapsedUniverse(c) {
		if proof := sat.ProveFault(c, f); proof.Redundant {
			r.Add("NL014", pos(f.Gate), f.String(c),
				"fault %s is provably untestable: no stimulus detects it", f.String(c))
		}
	}
	return r
}
