package lint

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// ScoapV is a SCOAP testability measure. Values saturate at ScoapInf,
// which marks a net that cannot be controlled to the value (or observed)
// at all — e.g. the output of a constant, or logic feeding nothing.
type ScoapV int32

// ScoapInf is the saturation sentinel. It is far below the int32 ceiling
// so saturating additions cannot overflow.
const ScoapInf ScoapV = 1 << 30

func scoapAdd(a, b ScoapV) ScoapV {
	if a >= ScoapInf || b >= ScoapInf {
		return ScoapInf
	}
	if s := a + b; s < ScoapInf {
		return s
	}
	return ScoapInf
}

func scoapMin(a, b ScoapV) ScoapV {
	if a < b {
		return a
	}
	return b
}

func scoapString(v ScoapV) string {
	if v >= ScoapInf {
		return "inf"
	}
	return fmt.Sprintf("%d", v)
}

// String renders the value, with saturated values as "inf".
func (v ScoapV) String() string { return scoapString(v) }

// SCOAP holds the classic Goldstein testability measures of a circuit,
// indexed by GateID (each gate's output net): CC0/CC1 are the combinational
// 0- and 1-controllabilities, CO the combinational observability. The
// full-scan conventions of this library apply — a DFF output is a scan-
// loadable pseudo input (CC0 = CC1 = 1) and a DFF data input is a scan-
// captured pseudo output (CO = 0 at the site) — so the measures speak about
// exactly the test frame PODEM searches over.
type SCOAP struct {
	c   *netlist.Circuit
	CC0 []ScoapV
	CC1 []ScoapV
	CO  []ScoapV
}

// ComputeSCOAP runs the two classic passes over a finalized circuit: a
// forward controllability sweep in topological order, then a backward
// observability sweep in reverse order. Cost is O(gates × fanin).
func ComputeSCOAP(c *netlist.Circuit) *SCOAP {
	if !c.Finalized() {
		panic("lint: ComputeSCOAP on non-finalized circuit")
	}
	n := c.NumGates()
	s := &SCOAP{
		c:   c,
		CC0: make([]ScoapV, n),
		CC1: make([]ScoapV, n),
		CO:  make([]ScoapV, n),
	}
	for i := range s.CC0 {
		s.CC0[i], s.CC1[i], s.CO[i] = ScoapInf, ScoapInf, ScoapInf
	}

	// Controllability. Sources first, then gates in evaluation order. A
	// constant is free to hold its own value and can hold no other.
	cc := s.cc()
	for id := netlist.GateID(0); int(id) < n; id++ {
		switch t := c.Gate(id).Type; t.Func() {
		case netlist.FuncSource:
			s.CC0[id], s.CC1[id] = 1, 1
		case netlist.FuncConst:
			cc[logic.FromBool(t.Inverted())][id] = 1
		}
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		s.CC0[id], s.CC1[id] = s.gateControllability(g)
	}

	// Observability. Observation sites are free; then reverse topological
	// order pushes observability from each gate's output to its inputs.
	for _, id := range c.Outputs() {
		s.CO[id] = 0
	}
	for _, d := range c.DFFs() {
		s.CO[c.Gate(d).Fanin[0]] = 0
	}
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		g := c.Gate(order[i])
		for pin := range g.Fanin {
			fid := g.Fanin[pin]
			s.CO[fid] = scoapMin(s.CO[fid], s.PinObservability(g.ID, pin))
		}
	}
	return s
}

// cc returns the controllabilities indexed by logic value: cc()[v] is
// CC0 for v = 0 and CC1 for v = 1.
func (s *SCOAP) cc() [2][]ScoapV { return [2][]ScoapV{s.CC0, s.CC1} }

// gateControllability computes (CC0, CC1) of a combinational gate from the
// already-computed controllabilities of its fanins: (b0, b1) of its base
// function, swapped when the gate inverts, plus one for the gate.
func (s *SCOAP) gateControllability(g *netlist.Gate) (cc0, cc1 ScoapV) {
	cc := s.cc()
	var b [2]ScoapV
	switch fn := g.Type.Func(); fn {
	case netlist.FuncBuf:
		f := g.Fanin[0]
		b = [2]ScoapV{s.CC0[f], s.CC1[f]}
	case netlist.FuncAnd, netlist.FuncOr:
		// One input at the controlling value c gives the output c; the
		// other value needs every input at ¬c.
		c := fn.Controlling()
		one, all := ScoapInf, ScoapV(0)
		for _, f := range g.Fanin {
			one = scoapMin(one, cc[c][f])
			all = scoapAdd(all, cc[logic.Not(c)][f])
		}
		b[c], b[logic.Not(c)] = one, all
	case netlist.FuncXor:
		// Fold the inputs tracking the cheapest way to reach even/odd
		// parity — exact for the n-input parity function.
		even, odd := s.CC0[g.Fanin[0]], s.CC1[g.Fanin[0]]
		for _, f := range g.Fanin[1:] {
			nEven := scoapMin(scoapAdd(even, s.CC0[f]), scoapAdd(odd, s.CC1[f]))
			nOdd := scoapMin(scoapAdd(even, s.CC1[f]), scoapAdd(odd, s.CC0[f]))
			even, odd = nEven, nOdd
		}
		b = [2]ScoapV{even, odd}
	default:
		// Sources and constants never reach here (not in TopoOrder).
		return ScoapInf, ScoapInf
	}
	if g.Type.Inverted() {
		b[0], b[1] = b[1], b[0]
	}
	return scoapAdd(b[0], 1), scoapAdd(b[1], 1)
}

// PinObservability returns the observability of the pin-th input of gate
// id: the cost of propagating a change on that pin through the gate to an
// observation point — its side inputs at the non-controlling value, any
// value for XOR. For a DFF the data pin is itself a capture site (0).
func (s *SCOAP) PinObservability(id netlist.GateID, pin int) ScoapV {
	g := s.c.Gate(id)
	switch fn := g.Type.Func(); fn {
	case netlist.FuncSource:
		if g.Type == netlist.DFF {
			return 0
		}
	case netlist.FuncBuf:
		return scoapAdd(s.CO[id], 1)
	case netlist.FuncAnd, netlist.FuncOr, netlist.FuncXor:
		cc, c := s.cc(), fn.Controlling()
		side := ScoapV(0)
		for j, f := range g.Fanin {
			if j == pin {
				continue
			}
			if c == logic.X {
				side = scoapAdd(side, scoapMin(s.CC0[f], s.CC1[f]))
			} else {
				side = scoapAdd(side, cc[logic.Not(c)][f])
			}
		}
		return scoapAdd(s.CO[id], scoapAdd(side, 1))
	}
	// Input/Const have no pins.
	return ScoapInf
}

// Difficulty returns the SCOAP estimate for the stuck-at fault on the
// output net of id: the cost of driving the net to the opposite value plus
// observing it. stuck is 0 or 1.
func (s *SCOAP) Difficulty(id netlist.GateID, stuck int) ScoapV {
	if stuck == 0 {
		return scoapAdd(s.CC1[id], s.CO[id])
	}
	return scoapAdd(s.CC0[id], s.CO[id])
}

// FaultDifficulty returns the SCOAP estimate for a structural fault:
// stem faults use the driver net's controllability and observability;
// fanout-branch faults observe through the specific receiving pin.
func (s *SCOAP) FaultDifficulty(f faults.Fault) ScoapV {
	stuck := 0
	if f.Stuck == logic.One {
		stuck = 1
	}
	if f.Pin == faults.StemPin {
		return s.Difficulty(f.Gate, stuck)
	}
	drv := s.c.Gate(f.Gate).Fanin[f.Pin]
	cc := s.CC1[drv]
	if stuck == 1 {
		cc = s.CC0[drv]
	}
	return scoapAdd(cc, s.PinObservability(f.Gate, int(f.Pin)))
}

// NetTestability is one row of the testability report.
type NetTestability struct {
	Name         string
	CC0, CC1, CO ScoapV
	Worst        ScoapV // max of the two stuck-at difficulties
}

// Hardest returns the k nets with the highest worst-case stuck-at
// difficulty, hardest first (ties broken by name for determinism).
// k <= 0 returns every net.
func (s *SCOAP) Hardest(k int) []NetTestability {
	n := s.c.NumGates()
	rows := make([]NetTestability, 0, n)
	for id := netlist.GateID(0); int(id) < n; id++ {
		d0, d1 := s.Difficulty(id, 0), s.Difficulty(id, 1)
		rows = append(rows, NetTestability{
			Name:  s.c.Gate(id).Name,
			CC0:   s.CC0[id],
			CC1:   s.CC1[id],
			CO:    s.CO[id],
			Worst: maxScoap(d0, d1),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Worst != rows[j].Worst {
			return rows[i].Worst > rows[j].Worst
		}
		return rows[i].Name < rows[j].Name
	})
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	return rows
}

func maxScoap(a, b ScoapV) ScoapV {
	if a > b {
		return a
	}
	return b
}
