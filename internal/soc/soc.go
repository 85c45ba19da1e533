// Package soc holds the paper's two ISCAS'89-based designs and their
// structural flattening: the SOC1 and SOC2 profiles (paper Figures 4 and 5,
// Tables 1 and 2) as core.SOC values, and Flatten — the "monolithic design
// with no isolation logic" the paper compares against.
package soc

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/netlist"
)

// SOC1Profile returns the paper's SOC1 (Figure 4, Table 1) with the
// published per-core parameters: s713, s953 and three instances of s1423
// under a small top-level glue module, including the ATALANTA pattern
// counts and the measured monolithic pattern count of 216. The top
// module's ports are chip pins, so they carry no wrapper cells.
func SOC1Profile() *core.SOC {
	top := &core.Module{
		Name:                  "Top",
		Params:                core.Params{Inputs: 51, Outputs: 10, ScanCells: 0, Patterns: 2},
		PortsTesterAccessible: true,
		Children: []*core.Module{
			{Name: "Core1(s713)", Params: core.Params{Inputs: 35, Outputs: 23, ScanCells: 19, Patterns: 52}},
			{Name: "Core2(s953)", Params: core.Params{Inputs: 16, Outputs: 23, ScanCells: 29, Patterns: 85}},
			{Name: "Core3(s1423)", Params: core.Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
			{Name: "Core4(s1423)", Params: core.Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
			{Name: "Core5(s1423)", Params: core.Params{Inputs: 17, Outputs: 5, ScanCells: 74, Patterns: 62}},
		},
	}
	return &core.SOC{Name: "SOC1", Top: top, TMono: 216}
}

// SOC2Profile returns the paper's SOC2 (Figure 5, Table 2): s953, s5378,
// s13207 and s15850, with the published parameters and T_mono = 945.
func SOC2Profile() *core.SOC {
	top := &core.Module{
		Name:                  "Top",
		Params:                core.Params{Inputs: 14, Outputs: 198, ScanCells: 0, Patterns: 2},
		PortsTesterAccessible: true,
		Children: []*core.Module{
			{Name: "Core1(s953)", Params: core.Params{Inputs: 16, Outputs: 23, ScanCells: 29, Patterns: 85}},
			{Name: "Core2(s5378)", Params: core.Params{Inputs: 35, Outputs: 49, ScanCells: 179, Patterns: 244}},
			{Name: "Core3(s13207)", Params: core.Params{Inputs: 31, Outputs: 121, ScanCells: 669, Patterns: 452}},
			{Name: "Core4(s15850)", Params: core.Params{Inputs: 14, Outputs: 87, ScanCells: 597, Patterns: 428}},
		},
	}
	return &core.SOC{Name: "SOC2", Top: top, TMono: 945}
}

// FlattenOptions steers the structural flattening of a set of core netlists
// into one monolithic chip netlist.
type FlattenOptions struct {
	// Seed makes the deterministic pseudo-random interconnect reproducible.
	Seed int64
	// InterconnectFraction is the fraction of each core's inputs driven by
	// other cores' outputs instead of chip pins, in [0, 1]. The remaining
	// inputs become chip inputs. Core outputs used as drivers are hidden;
	// unused outputs become chip outputs.
	InterconnectFraction float64
}

// Flatten stitches core netlists into one flattened chip-level netlist with
// the isolation logic "ripped out" (paper, Section 3): inter-core nets are
// plain wires, every core flip-flop remains a chip-level scan cell, and
// only chip pins and scan cells are controllable/observable.
//
// Core i's nets are prefixed "c<i>_". The interconnect is drawn
// deterministically from the seed: each input of core i is connected, with
// probability InterconnectFraction, to an output of a core with a *lower*
// index (keeping the inter-core wiring feed-forward and hence free of
// combinational loops), otherwise to a fresh chip input.
func Flatten(name string, cores []*netlist.Circuit, opt FlattenOptions) (*netlist.Circuit, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("soc: Flatten with no cores")
	}
	if opt.InterconnectFraction < 0 || opt.InterconnectFraction > 1 {
		return nil, fmt.Errorf("soc: InterconnectFraction %v out of [0,1]", opt.InterconnectFraction)
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	b := netlist.NewBuilder(name)
	gates, ports := 0, 0
	for _, c := range cores {
		gates, ports = gates+c.NumGates(), ports+len(c.Inputs())+len(c.Outputs())
	}
	b.Grow(gates+ports, gates+ports, 2*gates)
	// Gate id of core i drives chip net base[i]+id, named "c<i>_" and its
	// core name; chip pin k is net pins+k, named "pin_in_<k>" once all are
	// known. used marks the core outputs that drive another core's input.
	base := make([]int32, len(cores))
	for i, c := range cores {
		prefix := "c" + strconv.Itoa(i) + "_"
		base[i] = b.AddNets(c.NumGates(), func(dst []byte, id int) []byte {
			return append(append(dst, prefix...), c.Gate(netlist.GateID(id)).Name...)
		})
	}
	pins, chipIn, used := int32(gates), int32(0), make([]bool, gates)
	// Emit core logic with inputs rewired.
	for i, c := range cores {
		for _, in := range c.Inputs() {
			// Candidate drivers: outputs of other cores.
			driver := int32(-1)
			if rng.Float64() < opt.InterconnectFraction && i > 0 {
				// Pick a random earlier core (feed-forward only).
				for attempt := 0; attempt < 8 && driver < 0; attempt++ {
					j := rng.Intn(i)
					if outs := cores[j].Outputs(); len(outs) > 0 {
						driver = base[j] + int32(outs[rng.Intn(len(outs))])
						used[driver] = true
					}
				}
			}
			if driver < 0 {
				driver, chipIn = pins+chipIn, chipIn+1
				b.InputNet(driver)
			}
			b.GateNet(base[i]+int32(in), netlist.Buf, driver)
		}
		b.CopyGates(c, base[i])
	}
	// Unused core outputs become chip outputs.
	for i, c := range cores {
		for _, o := range c.Outputs() {
			if k := base[i] + int32(o); !used[k] {
				b.OutputNet(k)
			}
		}
	}
	b.AddNets(int(chipIn), func(dst []byte, k int) []byte {
		return strconv.AppendInt(append(dst, "pin_in_"...), int64(k), 10)
	})
	flat, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("soc: flattening %s: %w", name, err)
	}
	return flat, nil
}

// Describe renders the SOC hierarchy as an indented tree — used to
// reproduce the topology sketches of Figures 4 and 5.
func Describe(s *core.SOC) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (T_mono=%d)\n", s.Name, s.TMono)
	var walk func(m *core.Module, depth int)
	walk = func(m *core.Module, depth int) {
		fmt.Fprintf(&b, "%s%-16s I=%-4d O=%-4d B=%-3d S=%-5d T=%d\n",
			strings.Repeat("  ", depth), m.Name,
			m.Inputs, m.Outputs, m.Bidirs, m.ScanCells, m.Patterns)
		for _, ch := range m.Children {
			walk(ch, depth+1)
		}
	}
	walk(s.Top, 0)
	return b.String()
}
