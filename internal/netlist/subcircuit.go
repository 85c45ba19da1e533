package netlist

import (
	"cmp"
	"fmt"
	"slices"
)

// SubcircuitFromCone materializes a logic cone as a stand-alone circuit:
// the cone's support lines become primary inputs and the apex becomes the
// only primary output. This is the structural counterpart of the paper's
// "every logic cone treated as a core" thought experiment (Section 3), and
// it is what per-cone ATPG runs on: stimuli are confined to the cone support
// and observation is confined to the cone apex.
//
// The returned mapping translates subcircuit gate IDs back to gate IDs of
// the parent circuit.
func SubcircuitFromCone(c *Circuit, cone *Cone) (*Circuit, map[GateID]GateID, error) {
	if !c.Finalized() {
		return nil, nil, fmt.Errorf("netlist: SubcircuitFromCone on non-finalized circuit")
	}
	sub := New(fmt.Sprintf("%s.cone.%s", c.Name, c.Gate(cone.Apex).Name))
	oldToNew := make(map[GateID]GateID, len(cone.Gates))
	newToOld := make(map[GateID]GateID, len(cone.Gates))

	// Support lines (PIs and DFF outputs of the parent) become plain
	// primary inputs of the subcircuit.
	for _, s := range cone.Support {
		id, err := sub.AddGate(c.Gate(s).Name, Input)
		if err != nil {
			return nil, nil, err
		}
		oldToNew[s] = id
		newToOld[id] = s
	}
	// Remaining cone gates in topological (ID-compatible with levels)
	// order: sort by level so fanin exist before use.
	rest := make([]GateID, 0, len(cone.Gates))
	for _, g := range cone.Gates {
		if _, isSupport := oldToNew[g]; !isSupport {
			rest = append(rest, g)
		}
	}
	// Stable level sort (Gates are already in ascending ID order).
	slices.SortStableFunc(rest, func(x, y GateID) int { return cmp.Compare(c.Level(x), c.Level(y)) })
	for _, old := range rest {
		g := c.Gate(old)
		fanin := make([]GateID, len(g.Fanin))
		for i, f := range g.Fanin {
			nf, ok := oldToNew[f]
			if !ok {
				return nil, nil, fmt.Errorf("netlist: cone gate %q has fanin %q outside the cone",
					g.Name, c.Gate(f).Name)
			}
			fanin[i] = nf
		}
		id, err := sub.AddGate(g.Name, g.Type, fanin...)
		if err != nil {
			return nil, nil, err
		}
		oldToNew[old] = id
		newToOld[id] = old
	}
	apex, ok := oldToNew[cone.Apex]
	if !ok {
		return nil, nil, fmt.Errorf("netlist: cone apex missing from cone gates")
	}
	if err := sub.MarkOutput(apex); err != nil {
		return nil, nil, err
	}
	if err := sub.Finalize(); err != nil {
		return nil, nil, err
	}
	return sub, newToOld, nil
}
