// Package faults implements the single stuck-at fault model used by ATPG and
// fault simulation: fault universe enumeration over gate output stems and
// fanout branches, and classical structural equivalence collapsing.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// StemPin marks a fault on a gate's output stem (as opposed to one of its
// input branch pins).
const StemPin = -1

// Fault is a single stuck-at fault on a circuit line. Pin == StemPin places
// the fault on the output of Gate; Pin >= 0 places it on the Pin-th input
// branch of Gate (meaningful when the driving net has fanout > 1).
type Fault struct {
	Gate  netlist.GateID
	Pin   int32
	Stuck logic.V // Zero or One
}

// String renders the fault with net names resolved against c.
func (f Fault) String(c *netlist.Circuit) string {
	g := c.Gate(f.Gate)
	if f.Pin == StemPin {
		return fmt.Sprintf("%s/SA%s", g.Name, f.Stuck)
	}
	drv := c.Gate(g.Fanin[f.Pin])
	return fmt.Sprintf("%s->%s.%d/SA%s", drv.Name, g.Name, f.Pin, f.Stuck)
}

// Less imposes a deterministic total order on faults.
func (f Fault) Less(o Fault) bool {
	if f.Gate != o.Gate {
		return f.Gate < o.Gate
	}
	if f.Pin != o.Pin {
		return f.Pin < o.Pin
	}
	return f.Stuck < o.Stuck
}

// Universe enumerates the full structural stuck-at fault list of c:
//
//   - both polarities on every gate output stem (including primary inputs
//     and DFF outputs, which are the scan-controllable lines), and
//   - both polarities on every gate input pin whose driving net has
//     fanout greater than one (fanout branches).
//
// Input pins on single-fanout nets are structurally identical to the driver
// stem and are not enumerated separately. The result is sorted by Less, as
// enumerated: gates in ID order, each gate's stem before its pins in pin
// order, SA0 before SA1.
func Universe(c *netlist.Circuit) []Fault {
	if !c.Finalized() {
		panic("faults: circuit not finalized")
	}
	n := c.NumGates()
	output := make([]bool, n)
	for _, o := range c.Outputs() {
		output[o] = true
	}
	// Stem faults on every driven net that somebody observes: skip nets
	// with no fanout that are not outputs (dangling); they are untestable
	// by construction and would pollute coverage.
	stem := func(id netlist.GateID) bool { return len(c.Fanout(id)) > 0 || output[id] }
	branch := func(drv netlist.GateID) bool { return len(c.Fanout(drv)) > 1 }
	size := 0
	for id := netlist.GateID(0); int(id) < n; id++ {
		if stem(id) {
			size += 2
		}
		for _, drv := range c.Gate(id).Fanin {
			if branch(drv) {
				size += 2
			}
		}
	}
	fs := make([]Fault, 0, size)
	for id := netlist.GateID(0); int(id) < n; id++ {
		if stem(id) {
			fs = append(fs, Fault{id, StemPin, logic.Zero}, Fault{id, StemPin, logic.One})
		}
		for pin, drv := range c.Gate(id).Fanin {
			if branch(drv) {
				fs = append(fs, Fault{id, int32(pin), logic.Zero}, Fault{id, int32(pin), logic.One})
			}
		}
	}
	return fs
}

// Collapse partitions the fault list into structural equivalence classes and
// returns one representative per class (sorted), plus the mapping from every
// fault to its class representative.
//
// The rules are the classical ones, read off the netlist gate table: an
// input stuck at the controlling value c of a gate with output inversion i
// is the output stuck at c⊕i, and BUF/NOT inputs are the output for both
// values:
//
//	BUF:  in SA-v        ≡ out SA-v
//	NOT:  in SA-v        ≡ out SA-(¬v)
//	AND:  any in SA-0    ≡ out SA-0
//	NAND: any in SA-0    ≡ out SA-1
//	OR:   any in SA-1    ≡ out SA-1
//	NOR:  any in SA-1    ≡ out SA-0
//	DFF:  in SA-v        ≡ out SA-v is NOT applied: in full-scan testing the
//	      DFF input and output lie in different capture frames.
//
// plus the wiring rule: a branch-pin fault on a single-fanout net is the
// same line as the driver stem (Universe already avoids enumerating those,
// so the wiring rule here instead folds a gate input fault on a
// single-fanout line into the driver's stem fault).
func Collapse(c *netlist.Circuit, fs []Fault) (reps []Fault, classOf map[Fault]Fault) {
	idx := make(map[Fault]int, len(fs))
	for i, f := range fs {
		idx[f] = i
	}
	uf := unionClasses(c, len(fs), func(f Fault) (int, bool) {
		i, ok := idx[f]
		return i, ok
	})

	// Deterministic representative: the smallest fault in each class.
	minOf := make(map[int]int) // root -> index of minimal fault
	for i := range fs {
		r := uf.find(i)
		if m, ok := minOf[r]; !ok || fs[i].Less(fs[m]) {
			minOf[r] = i
		}
	}
	classOf = make(map[Fault]Fault, len(fs))
	for i, f := range fs {
		classOf[f] = fs[minOf[uf.find(i)]]
	}
	seen := make(map[Fault]bool, len(minOf))
	for _, m := range minOf {
		if !seen[fs[m]] {
			seen[fs[m]] = true
			reps = append(reps, fs[m])
		}
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].Less(reps[j]) })
	return reps, classOf
}

// CollapsedUniverse is the common composition: Universe followed by Collapse,
// returning only the representatives. It needs neither Collapse's maps nor
// its final sort: faults are looked up by binary search in the sorted
// universe, and walking the universe in index order meets each class's
// minimum first, so the representatives come out sorted.
func CollapsedUniverse(c *netlist.Circuit) []Fault {
	fs := Universe(c)
	uf := unionClasses(c, len(fs), func(f Fault) (int, bool) {
		i := sort.Search(len(fs), func(i int) bool { return !fs[i].Less(f) })
		return i, i < len(fs) && fs[i] == f
	})
	seen := make([]bool, len(fs))
	reps := make([]Fault, 0, uf.sets)
	for i, f := range fs {
		if r := uf.find(i); !seen[r] {
			seen[r] = true
			reps = append(reps, f)
		}
	}
	return reps
}

// unionClasses applies the equivalence rules of Collapse to a fault list of
// n faults, where index reports a fault's position in the list (false when
// the fault is not in it; rules touching such a fault are skipped).
func unionClasses(c *netlist.Circuit, n int, index func(Fault) (int, bool)) *unionFind {
	uf := newUnionFind(n)
	union := func(a, b Fault) {
		ia, oka := index(a)
		ib, okb := index(b)
		if oka && okb {
			uf.union(ia, ib)
		}
	}

	for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
		g := c.Gate(id)
		if !g.Type.Combinational() {
			continue
		}
		for pin, drv := range g.Fanin {
			// The fault "as seen at this gate input": a branch fault if
			// the driver has fanout > 1, else the driver's stem fault.
			inFault := func(v logic.V) Fault {
				if len(c.Fanout(drv)) > 1 {
					return Fault{id, int32(pin), v}
				}
				return Fault{drv, StemPin, v}
			}
			// Input SA-v fixes the output at v⊕i when v is the gate's
			// controlling value c, and for every v on BUF and NOT.
			for v := logic.Zero; v <= logic.One; v++ {
				if v != g.Type.Controlling() && g.Type.Func() != netlist.FuncBuf {
					continue
				}
				out := v
				if g.Type.Inverted() {
					out = logic.Not(v)
				}
				union(inFault(v), Fault{id, StemPin, out})
			}
		}
	}
	return uf
}

// InCone filters fs down to the faults whose site lies inside the given
// cone (the site gate, for branch faults the gate holding the pin).
func InCone(fs []Fault, cone *netlist.Cone) []Fault {
	in := make(map[netlist.GateID]bool, len(cone.Gates))
	for _, g := range cone.Gates {
		in[g] = true
	}
	var out []Fault
	for _, f := range fs {
		if in[f.Gate] {
			out = append(out, f)
		}
	}
	return out
}

// unionFind is a plain weighted quick-union with path halving over int32
// slots (a fault list never nears 2^31 faults). sets counts the classes.
type unionFind struct {
	parent []int32
	size   []int32
	sets   int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int32, n), size: make([]int32, n), sets: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
	return u
}

func (u *unionFind) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = int(u.parent[x])
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	u.size[ra] += u.size[rb]
	u.sets--
}
