package netlist

// Cone is the transitive fan-in of one observation point: all combinational
// logic driving a primary output or a flip-flop data input. Cones are the
// unit of the paper's conceptual analysis (Section 3): ATPG works per cone,
// and the variation in per-cone pattern counts is the source of the test
// data volume waste of monolithic testing.
type Cone struct {
	// Apex is the observation point: the gate driving a primary output or
	// DFF data input.
	Apex GateID
	// Gates lists every gate in the transitive fan-in of Apex, including
	// Apex itself and the supporting Inputs/DFFs, in ascending ID order.
	Gates []GateID
	// Support lists the controllable points (primary inputs and DFF
	// outputs) the cone depends on, in ascending ID order.
	Support []GateID
}

// Width returns the number of controllable points feeding the cone.
func (cn *Cone) Width() int { return len(cn.Support) }

// Size returns the total number of gates in the cone.
func (cn *Cone) Size() int { return len(cn.Gates) }

// ExtractCone computes the logic cone whose apex is the given gate.
// Traversal stops at primary inputs and DFF outputs (the full-scan
// controllable points). The circuit must be finalized.
func (c *Circuit) ExtractCone(apex GateID) Cone {
	c.mustBeFinalized("ExtractCone")
	in := make([]bool, len(c.gates))
	stack := []GateID{apex}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[id] {
			continue
		}
		in[id] = true
		if g := &c.gates[id]; g.Type != Input && g.Type != DFF { // not the controllable boundary
			stack = append(stack, g.Fanin...)
		}
	}
	cn := Cone{Apex: apex}
	for id, ok := range in {
		if ok {
			cn.Gates = append(cn.Gates, GateID(id))
			if t := c.gates[id].Type; t == Input || t == DFF {
				cn.Support = append(cn.Support, GateID(id))
			}
		}
	}
	return cn
}

// AllCones extracts the cone of every pseudo primary output (primary
// outputs first, then DFF data inputs), in that order.
func (c *Circuit) AllCones() []Cone {
	ppos := c.PseudoOutputs()
	cones := make([]Cone, len(ppos))
	for i, apex := range ppos {
		cones[i] = c.ExtractCone(apex)
	}
	return cones
}

// SupportOverlap counts the controllable points shared by two cones. Two
// cones with disjoint support can always have their partial test patterns
// merged (paper, Figure 1(a)).
func SupportOverlap(a, b *Cone) int {
	i, j, n := 0, 0, 0
	for i < len(a.Support) && j < len(b.Support) {
		switch {
		case a.Support[i] < b.Support[j]:
			i++
		case a.Support[i] > b.Support[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
