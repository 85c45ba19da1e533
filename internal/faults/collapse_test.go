package faults

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/soc"
)

// collapseSubjects collects every .bench fixture of the netlist package,
// the six stand-ins, a spread of random stand-in shapes, and SOC1 and SOC2
// flattened as the live rerun builds them.
func collapseSubjects(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	out := map[string]*netlist.Circuit{
		"chain":  mustParse(t, "chain", invChain),
		"branch": mustParse(t, "branch", branchCircuit),
		"rules":  mustParse(t, "rules", gateRules),
	}
	paths, err := filepath.Glob(filepath.Join("..", "netlist", "testdata", "*.bench"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no .bench fixtures found (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".bench")
		c, err := netlist.ParseBenchString(name, string(data))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out[name] = c
	}
	profiles := bench89.StandardProfiles()
	for seed := int64(1); seed <= 12; seed++ {
		profiles = append(profiles, bench89.Profile{
			Name:    fmt.Sprintf("rand%d", seed),
			Inputs:  1 + int(seed*7%23),
			Outputs: 1 + int(seed*5%11),
			DFFs:    int(seed * 3 % 13),
			Gates:   10 + int(seed*37%300),
			Seed:    seed,
		})
	}
	for _, prof := range profiles {
		c, err := bench89.Generate(prof)
		if err != nil {
			t.Fatalf("profile %+v: %v", prof, err)
		}
		out[prof.Name] = c
	}
	for _, chip := range []struct {
		name  string
		cores []string
	}{
		{"SOC1-flat", []string{"s713", "s953", "s1423", "s1423", "s1423"}},
		{"SOC2-flat", []string{"s953", "s5378", "s13207", "s15850"}},
	} {
		var cores []*netlist.Circuit
		for i, name := range chip.cores {
			prof, ok := bench89.ProfileByName(name)
			if !ok {
				t.Fatalf("unknown stand-in %q", name)
			}
			prof.Seed += int64(i) * 1013 // the per-instance offset of repro.LiveSOC1/2
			c, err := bench89.Generate(prof)
			if err != nil {
				t.Fatal(err)
			}
			cores = append(cores, c)
		}
		c, err := soc.Flatten(chip.name, cores, soc.FlattenOptions{Seed: 1, InterconnectFraction: 0.45})
		if err != nil {
			t.Fatal(err)
		}
		out[chip.name] = c
	}
	return out
}

// universeSorted is the reference for Universe: the enumeration it ran
// before it was built in one pass, scanning the output list once per gate
// and sorting the faults afterwards.
func universeSorted(c *netlist.Circuit) []Fault {
	isOutput := func(id netlist.GateID) bool {
		for _, o := range c.Outputs() {
			if o == id {
				return true
			}
		}
		return false
	}
	var fs []Fault
	for id := netlist.GateID(0); int(id) < c.NumGates(); id++ {
		g := c.Gate(id)
		if len(c.Fanout(id)) > 0 || isOutput(id) {
			fs = append(fs, Fault{id, StemPin, logic.Zero}, Fault{id, StemPin, logic.One})
		}
		for pin, drv := range g.Fanin {
			if len(c.Fanout(drv)) > 1 {
				fs = append(fs, Fault{id, pin, logic.Zero}, Fault{id, pin, logic.One})
			}
		}
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
	return fs
}

// TestUniverseMatchesSortedEnumeration holds the one-pass Universe to its
// claim that it enumerates in Less order: on every subject it is strictly
// increasing under Less and equals the sorted reference enumeration.
func TestUniverseMatchesSortedEnumeration(t *testing.T) {
	for name, c := range collapseSubjects(t) {
		got, want := Universe(c), universeSorted(c)
		for i := 1; i < len(got); i++ {
			if !got[i-1].Less(got[i]) {
				t.Fatalf("%s: fault %d (%s) does not sort after fault %d (%s)",
					name, i, got[i].String(c), i-1, got[i-1].String(c))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Universe has %d faults, the sorted enumeration %d, or they differ", name, len(got), len(want))
		}
	}
}

// TestCollapsedUniverseMatchesCollapse holds the map-free CollapsedUniverse
// against the map-based Collapse: the same representatives, in the same
// order, each the minimum of its class.
func TestCollapsedUniverseMatchesCollapse(t *testing.T) {
	for name, c := range collapseSubjects(t) {
		want, classOf := Collapse(c, Universe(c))
		got := CollapsedUniverse(c)
		if len(got) != len(want) {
			t.Fatalf("%s: %d representatives, Collapse gives %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: representative %d is %s, Collapse gives %s",
					name, i, got[i].String(c), want[i].String(c))
			}
			if classOf[got[i]] != got[i] {
				t.Fatalf("%s: representative %s is not its class minimum", name, got[i].String(c))
			}
		}
	}
}
