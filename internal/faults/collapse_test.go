package faults

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

// collapseSubjects collects every .bench fixture of the netlist package,
// the six stand-ins and a spread of random stand-in shapes.
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
	return out
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
